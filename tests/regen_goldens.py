"""Regenerate the frozen reference files under tests/golden/.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python3 tests/regen_goldens.py

The files land in tests/golden/ beside this script.

Every file this writes is deterministic, so a clean checkout regenerates
byte-identical goldens.  The test suite never calls this script; it only
reads the committed files.
"""

import json
import pathlib

from mirror_ring import cli, moduli, quiver, theta

GOLDEN = pathlib.Path(__file__).parent / "golden"


def ngon_tables() -> dict:
    data = {}
    for n in (1, 2, 3, 4):
        table = theta.build_table(n, 2, 2)
        block = {}
        for (a, b), consts in theta.specialize_ngon(table).items():
            key = f"{a.m},{a.p}|{b.m},{b.p}"
            block[key] = {str(p): c for p, c in sorted(consts.items())}
        data[str(n)] = block
    return data


def moduli_series() -> dict:
    data = {}
    D = 3
    for n in (2, 3, 4):
        block = {
            "s": moduli.solve_s(n, D).to_json_obj(),
            "R_0": moduli.residue_R(0, n, D).to_json_obj(),
        }
        b_off, b_diag = moduli.coords_b(n, D)
        block["b_off"] = {
            f"{i},{j}": v.to_json_obj() for (i, j), v in sorted(b_off.items())
        }
        block["b_diag"] = {str(i): v.to_json_obj() for i, v in sorted(b_diag.items())}
        if n >= 3:
            block["c"] = {
                f"{i},{j}": v.to_json_obj()
                for (i, j), v in sorted(moduli.coords_c(n, D).items())
            }
        data[str(n)] = block
    return data


def main():
    GOLDEN.mkdir(exist_ok=True)

    def dump(name, obj):
        path = GOLDEN / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")

    dump("ngon_tables.json", ngon_tables())
    dump("moduli_series.json", moduli_series())
    dump("quiver_table_n2.json", quiver.multiplication_table(2))

    for name, argv in (
        ("cli_theta_n2.csv", ["theta", "--n", "2", "--max-m", "2",
                              "--trunc", "4", "--format", "csv"]),
        ("cli_moduli_n3.json", ["moduli", "--n", "3", "--trunc", "3"]),
        ("cli_verify_n2.json", ["verify", "--n", "2", "--max-m", "1",
                                "--trunc", "4"]),
    ):
        path = GOLDEN / name
        rc = cli.main(argv + ["-o", str(path)])
        if rc != 0:
            raise SystemExit(f"golden command for {name} exited with {rc}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
