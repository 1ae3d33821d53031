#!/usr/bin/env python3
"""Check that clippy still rejects what each lint fixture here seeds.

Every fixture marks each line that must fail with a trailing `//~ CODE...`
comment: a clippy lint name (`unwrap_used`), or a rustc error code
(`E0425`) for a fixture that must not compile. The script copies the
fixtures into the library of `knots-sim`, a decision-path crate, runs
`cargo clippy -D warnings` over that library and its unit tests, and
requires each fixture's findings to be exactly the marked ones: a mark
that draws nothing fails, and so does a finding on an unmarked line.
Findings of other lints (dead code, style) are not judged. The crate's
sources are restored afterwards. Run it from anywhere in the repository:

    python3 tests/clippy/check.py
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = ROOT / "tests" / "clippy"
LIB = ROOT / "crates" / "sim" / "src"
# The lints that enforce the rules these fixtures seed.
LINTS = {
    "unwrap_used", "expect_used", "panic", "todo", "unimplemented",
    "print_stdout", "print_stderr", "dbg_macro", "disallowed_types",
}
ERROR_CODE = re.compile(r"E\d{4}")


def marked(path):
    """The (line, code) pairs a fixture's `//~` comments require."""
    want = set()
    for n, line in enumerate(path.read_text().splitlines(), 1):
        _, sep, codes = line.partition("//~ ")
        if sep:
            want |= {(n, code) for code in codes.split()}
    return want


def findings(fixtures):
    """Run clippy with `fixtures` as modules of the knots-sim library and
    return each fixture's (line, code) findings."""
    lib_rs = LIB / "lib.rs"
    original = lib_rs.read_text()
    module = {stem: f"clippy_fixture_{stem}" for stem in fixtures}
    try:
        for stem, path in fixtures.items():
            shutil.copy(path, LIB / f"{module[stem]}.rs")
        lib_rs.write_text(original + "".join(f"mod {m};\n" for m in module.values()))
        out = subprocess.run(
            ["cargo", "clippy", "--locked", "-q", "-p", "knots-sim", "--lib", "--tests",
             "--message-format=json", "--", "-D", "warnings"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout
    finally:
        lib_rs.write_text(original)
        for m in module.values():
            (LIB / f"{m}.rs").unlink(missing_ok=True)
    stem_of = {f"{m}.rs": stem for stem, m in module.items()}
    found = {stem: set() for stem in fixtures}
    for line in out.splitlines():
        msg = json.loads(line)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        code = ((diag.get("code") or {}).get("code") or "").removeprefix("clippy::")
        if code not in LINTS and not ERROR_CODE.fullmatch(code):
            continue
        for span in diag["spans"]:
            stem = stem_of.get(pathlib.Path(span["file_name"]).name)
            if span["is_primary"] and stem:
                found[stem].add((span["line_start"], code))
    return found


def main():
    fixtures = {p.stem: p for p in sorted(HERE.glob("*.rs"))}
    want = {stem: marked(p) for stem, p in fixtures.items()}
    # A fixture that must not compile would stop clippy linting the others.
    broken = [s for s in fixtures if any(ERROR_CODE.fullmatch(c) for _, c in want[s])]
    found = findings({s: p for s, p in fixtures.items() if s not in broken})
    for stem in broken:
        found.update(findings({stem: fixtures[stem]}))
    failed = not fixtures
    for stem in fixtures:
        missing, extra = want[stem] - found[stem], found[stem] - want[stem]
        for line, code in sorted(missing):
            print(f"{stem}.rs:{line}: expected {code}, clippy reported none")
        for line, code in sorted(extra):
            print(f"{stem}.rs:{line}: unexpected {code}")
        failed |= bool(missing or extra) or not want[stem]
        if not (missing or extra):
            print(f"{stem}.rs: {len(want[stem])} marked finding(s), all reported")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
