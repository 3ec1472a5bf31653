#!/usr/bin/env python3
"""Count the lines of each module of the package: code, docstrings,
comments and blanks, and their total.

    python3 scripts/src_size.py [DIR]

DIR is the package directory, this checkout's src/crossedext by default;
a DIR that holds no *.py module is an error (exit status 2), not a zero
total.
Each line is counted once, by the first kind it holds of: code, docstring,
comment, blank.  A docstring is a string that makes up a statement on its
own; every line it spans counts as docstring.  A line with code and a
trailing comment is code.  The four counts of a module sum to its line
count, as `wc -l` gives it.
"""
import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code of their own
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def line_kinds(text):
    """The kind (one of KINDS) of each line of the Python source text."""
    # lines as tokenize numbers them: split at "\n" only
    marks = [set() for _ in io.StringIO(text)]

    def mark(tok, kind):
        for n in range(tok.start[0], tok.end[0] + 1):
            marks[n - 1].add(kind)

    toks = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for tok in toks:
        if tok.type == tokenize.COMMENT:
            mark(tok, "comment")
    stmt = [t for t in toks if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(stmt):
        if tok.type in LAYOUT:
            continue
        alone = ((i == 0 or stmt[i - 1].type in LAYOUT)
                 and stmt[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        mark(tok, "docstring" if tok.type == tokenize.STRING and alone
             else "code")
    return [next((k for k in KINDS[:3] if k in m), "blank") for m in marks]


def count(path):
    """{kind: number of lines} of the module at path."""
    kinds = line_kinds(Path(path).read_text())
    return {k: kinds.count(k) for k in KINDS}


def _row(name, cells):
    return f"{name:<16}" + "".join(f"{c:>10}" for c in cells)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dir", nargs="?", default=str(ROOT / "src" / "crossedext"),
                    help="the package directory")
    args = ap.parse_args()
    paths = sorted(Path(args.dir).glob("*.py"))
    if not paths:
        ap.error(f"{args.dir} holds no *.py module")
    total = dict.fromkeys(KINDS, 0)
    print(_row("module", KINDS + ("lines",)))
    for path in paths:
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(_row(path.name, [counts[k] for k in KINDS]
                   + [sum(counts.values())]))
    print(_row("total", [total[k] for k in KINDS] + [sum(total.values())]))


if __name__ == "__main__":
    main()
