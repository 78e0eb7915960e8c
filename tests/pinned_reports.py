"""Every pinned report of the command line, by the sha256 of its bytes.

Each pin is one ``mirror-ring`` command and the sha256 of the report it
writes.  ``check`` makes the report from cold moduli caches twice, to
``-o`` and to stdout, and requires exit 0, one text both ways, the pinned
digest and, for JSON, the text the stdlib encoder writes back.  Its
raises are explicit, so it checks as much under ``python -O``.  Reports
that must agree share one digest: the closed form and both triangle
counts print one table at each size, and ``verify`` writes one report at
any ``--jobs``.

The tier-1 suite runs every pin.  Run them all under ``-O`` with

    PYTHONPATH=src python -O tests/pinned_reports.py

which prints the digest it got for each report that fails.  To pin a
report, add one line, its digest taken from the report of the commit
before the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from mirror_ring import cli, moduli


def routes(flags: str, digest: str) -> list[tuple[str, str]]:
    """The three routes' tables at one size: the same bytes."""
    return [(f"{route} {flags}", digest) for route in ("theta", "floer-direct", "floer-brion")]


VERIFY_5_4_12 = "6b0ab9293e9a5862a9beb03721add4c41f395ed829d5b7c4d1f7a7ff501cb5b2"

PINS = [
    (cmd.split(), digest)
    for cmd, digest in [
        *routes("--n 3 --max-m 2 --trunc 6", "78be705068881e11f9c4a9c04936a3c85e02e63f3402116fd927d97b9bea4b02"),
        *routes("--n 4 --max-m 3 --trunc 8", "eadc164f0631e723d3f19b71f563e94490a76655ded1f2f9504dbf4dc51b5f31"),
        *routes(
            "--n 4 --max-m 3 --trunc 8 --format csv",
            "f12c33d777ed5009393b52b1b4c9e144a7663a309ab5f5512e4d3ad466a755b6",
        ),
        # the benchmark's size
        *routes("--n 5 --max-m 4 --trunc 12", "a07ca24b20df5525a1105513eb58ff97bc844496a30e882ff41bceb129896a30"),
        # k-windows wider than the benchmark's
        *routes("--n 7 --max-m 3 --trunc 20", "cedc9c4751d996ff1361206f2c3e7c3dcc15dd5f03a7f562589fde9f7a1fde70"),
        # at n = 1 most series have several terms, some with coefficients above 1
        *routes("--n 1 --max-m 4 --trunc 12", "af723612e6a554d7d4f1ab409ab08fa1161b02b88ccf00c6e63ce571ea02b0c0"),
        # the reflection fixes slot 0 and swaps the rest in pairs at an even n
        *routes("--n 2 --max-m 4 --trunc 10", "67a1ae0b98135fdbe442d0bdb6ec542bcc032ed647f121adb03913eb5f9b9112"),
        *routes("--n 6 --max-m 3 --trunc 8", "ffee951dbe246f272bf20f6c60b6f3b0b72260ffa3010a3a86874f9ca104f6ca"),
        ("theta --n 1 --max-m 4 --trunc 12 --format csv", "86a4f581eda8867e364599ee8770af7217c6da1f44b586fd8d4d29d3ae33b244"),
        ("theta --n 1 --max-m 1 --trunc 0", "9414d99ec5c9f081f66420de6a2df51e71dd7bdd9f6131f2a17fd44a725af691"),
        ("theta --n 3 --max-m 2 --trunc 6 --format csv", "2a4a56e5b22c8091222827a1bc9fb109db240a805b36f440517576e295a1f850"),
        ("theta --n 5 --max-m 4 --trunc 12 --format csv", "f0be530b6320cea17c7e0bd8b0ec54b356b5c364806a687269b23be85704c5c8"),
        ("floer-brion --n 2 --max-m 3 --trunc 0", "329b3306f784275e4f2d3f379fe04e7d5d62ac8700bf1c51bd40055e3740cf25"),
        ("verify --n 3 --max-m 2 --trunc 6 --jobs 1", "f3b6146c1b880336b72c557acf8f938e599782d5eff37f5858d4302a9e99db4a"),
        # a table counts one pair per orbit; verify counts every ordered pair
        ("verify --n 4 --max-m 3 --trunc 8 --jobs 1", "129f6fb8f335e6e6ed41a5934ca0d7afadc7a9bcf6dc06458371dad7df471f20"),
        # in-process and in a pool of two
        ("verify --n 5 --max-m 4 --trunc 12 --jobs 1", VERIFY_5_4_12),
        ("verify --n 5 --max-m 4 --trunc 12 --jobs 2", VERIFY_5_4_12),
        ("verify --n 7 --max-m 3 --trunc 10 --jobs 1", "f61c2656030923fdf1be405355a81278134e5d6703a05c10b11d206cea0b6b36"),
        ("moduli --n 1 --trunc 0", "cc99b34b893c11496d30d7189242d493ad25291cc1d0e9db699214a9380a38f9"),
        ("moduli --n 1 --trunc 12", "f5e7d8a388888b7a248233590ede0b69020bbae82d99370a2cccf77d3f0e1b67"),
        ("moduli --n 2 --trunc 4", "3947ebd3963890496ca717fc3bd789b0536ae21f709218abf5d31eb64cd23228"),
        ("moduli --n 3 --trunc 0", "56bfcd27aa1d779028c23dbbec0ccf484cef4bf147a484ac16682700f3a32e80"),
        ("moduli --n 3 --trunc 4", "c4798d057ff4a843fa38020e5e1d86d283540769d82374f941cd3eded899136f"),
        # the power table is most of the round
        ("moduli --n 3 --trunc 20", "605a43b6e6546e5cc03813b4981f555bed4532c7157e6ea94fa69bbec668b651"),
        ("moduli --n 4 --trunc 6", "abebbb99ec752a7d1406f5959779c679926b63055a01f3eaf821cb9e6e1d28f8"),
        ("moduli --n 4 --trunc 8", "c126f1c92cc31e89d8d91afc389ce8c737b3968ceffff0656fc7d584d8147eb3"),
        ("moduli --n 4 --trunc 12", "a93d79c6777265e5d468ead85082c05d7cb49468c97a9dc7a78def723d852b6b"),
        ("moduli --n 5 --trunc 5", "f161088d2fbc9ba0e0d5504cae08b05f4ac2c522ede3d33241b1a9f2d6308a00"),
        ("moduli --n 5 --trunc 6", "dab199e57e27f0039e416b941cc6cb1efcb082f9bc4a1868d2104767328f4b7a"),
        # 57 series with about nine terms per distinct exponent vector
        ("moduli --n 6 --trunc 12", "43b001cbd39810340332653a80f61fd1c8b68a87fa039b9e13c34b9754000ba0"),
        ("moduli --n 7 --trunc 9", "6ed87db9e860b24e80e5b59ac9ee70d4764f1b7e48fe1c67c2ab1d4cd1364bc6"),
        # a packed exponent key reaches 8 * 9**9 > 2**30, a many-digit int
        ("moduli --n 10 --trunc 8", "79c15f3a36e2aac027ac3f7ae1ab40e64e36c4b35b720af2a8ca27063483f28c"),
        ("assoc --n 1 --max-m 3 --trunc 8", "b49fcc80a279ae796421789af7d4dd6c63deb8ea27d66423c4121c97d318de95"),
        ("assoc --n 2 --max-m 2 --trunc 5", "670d06d1a6e81d572f19830d34d9b352bf9e4bf05c938d069b203d8586e09522"),
        ("assoc --n 3 --max-m 2 --trunc 6", "842800deda101497f9d2c97325969cef30cce745b8f955f0a24fb7f712db519e"),
        ("assoc --n 4 --max-m 2 --trunc 7", "c0433c205d2717fabec73779340fcd8f05b51bc2993c4756822e6e0fad02faaa"),
        ("quiver --n 2", "c7e81cf0ee74ea2d30c517ec48022748222d2349e41b53ffab1cba156294dcde"),
        ("quiver --n 3", "6ff4c519434ee359d1abf84b68f466a930803b1ca7eb479bed224673d1434e4b"),
        ("quiver --n 4", "221dfa15309e4dc9b54d405931eb34334e34ddf36b7aecb17b606326e5140aca"),
        ("quiver --n 7", "0b498bf5b39666507bcf5c871b958e93838a32f5259da9a4a29104b53b110e9d"),
        ("quiver --n 12", "389650de49988822ce9c308be8f92e5925735a3a4ad4f0862368fd3794b96d0f"),
    ]
]


# the digests of the reports the stdlib encoder has written back unchanged
_RE_ENCODED: set[str] = set()


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cli.main(argv), from cold moduli caches as
    the benchmark runs each subcommand."""
    moduli.solve_s.cache_clear()
    moduli._point_data.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check(argv: list[str], digest: str):
    """Raise AssertionError unless argv writes, to -o and to stdout, one
    report whose sha256 is digest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        rc_file, _ = _run([*argv, "-o", path])
        rc_out, text = _run(argv)
        if (rc_file, rc_out) != (0, 0):
            raise AssertionError(f"exit {rc_file} to -o and {rc_out} to stdout")
        with open(path, encoding="utf-8", newline="") as fh:
            written = fh.read()
    got = hashlib.sha256(written.encode()).hexdigest()
    if got != digest:
        raise AssertionError(f"sha256 {got}, pinned {digest}")
    if text != written:
        raise AssertionError("stdout differs from the -o file")
    if "csv" not in argv and digest not in _RE_ENCODED:
        if json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" != text:
            raise AssertionError("the stdlib encoder writes the report otherwise")
        _RE_ENCODED.add(digest)


def main() -> int:
    failed = 0
    for argv, digest in PINS:
        try:
            check(argv, digest)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {' '.join(argv)}: {exc}")
    mode = "" if __debug__ else " under python -O"
    print(f"{len(PINS) - failed} of {len(PINS)} pinned reports match{mode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
