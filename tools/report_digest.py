"""Print the sha256 of a fixed set of lyubich-lab outputs.

Two checkouts whose outputs should be byte-identical print the same
lines.  Each command runs in a fresh interpreter, in an empty working
directory, against the ``src/`` next to this script.  The output hashed
is the file a command writes through ``--out``, or else (and when the
command fails before writing it) its stdout report with the
``generated_at`` line dropped.

    python tools/report_digest.py

The set covers trees at 16384 atoms and more (where numpy's temporary
elision can move last bits), a tree whose deepest level spans two chunks
of the CSV writer, a tree with atoms at infinity, a tree of
the cubic z^3 - 3z and a sampled tree of it (cubic rows take the closed
form, as quadratic rows do), a tree of a degree-4 Lattes map (its rows
take the Aberth iteration and the polish), two trees none of whose rows
is real (a real map rooted off the real line, and a map with a non-real
coefficient), the measure CSV of a tree
with double atoms, a Julia sample, basis exports of basilica and of
chebyshev (whose Julia set meets a critical point), seven verification
reports, two of them on chebyshev (one with padded sibling blocks), one
with trials checked in chunks of several rows and one on z^3 (whose
sibling blocks of three take the eigensolver), the key lemma alone on
chebyshev at depth 12, a sector-ladder basis on a 4096-atom level whose
points lie in up to three supports, and on Newton's map for z^3 - 1,
whose 141 bumps take their cover tables on 19683 sibling-fiber points
block by block, and the invariance defect and the covariance relation
of z^2 conjugated by the Cayley map,
whose atoms reach large moduli and whose weighted sums span many
binades, a transfer power through the orbit memo, whose levels are
mostly a few rows, and one fiber through the one-row front.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

COMMANDS = [
    ["tree", "--map", "basilica", "--depth", "14", "--out", "out.csv"],
    ["tree", "--map", "chebyshev", "--w", "2,0", "--depth", "14", "--out", "out.csv"],
    # 65536 atoms at level 16: two chunks of the CSV writer.
    ["tree", "--map", "basilica", "--depth", "16", "--out", "out.csv"],
    ["tree", "--num=1,0;0,0;0,0;2,0", "--den=0,0;0,0;3,0", "--w", "inf",
     "--depth", "7", "--out", "out.csv"],
    # z^3 - 3z: cubic rows in closed form, 19683 atoms at level 9.
    ["tree", "--num=0,0;-3,0;0,0;1,0", "--den=1,0", "--depth", "9", "--out", "out.csv"],
    # A sampled tree with fewer branches than the degree: weights over 2**k.
    ["tree", "--num=0,0;-3,0;0,0;1,0", "--den=1,0", "--depth", "9", "--branches", "2",
     "--seed", "3", "--out", "out.csv"],
    # The Lattes map (z^2 + 1)^2 / (4z(z^2 - 1)): quartic rows on the Aberth
    # iteration and the three-step polish, 4096 atoms at level 6.
    ["tree", "--num=1,0;0,0;2,0;0,0;1,0", "--den=0,0;-4,0;0,0;4,0", "--depth", "6",
     "--out", "out.csv"],
    # Trees whose fibers are never real rows, so they take the complex
    # route throughout: a real map (Newton's for z^3 - 1) rooted off the
    # real line, and a map with a non-real coefficient, z^3 + 0.3 + 0.5i.
    ["tree", "--num=1,0;0,0;0,0;2,0", "--den=0,0;0,0;3,0", "--w", "0.31,0.17",
     "--depth", "8", "--out", "out.csv"],
    ["tree", "--num=0.3,0.5;0,0;0,0;1,0", "--den=1,0", "--depth", "8", "--out", "out.csv"],
    # The measure CSV, with the double atoms of chebyshev's tree at 2.
    ["measure", "--map", "chebyshev", "--w", "2,0", "--depth", "14", "--out", "out.csv"],
    ["julia", "--map", "basilica", "--size", "512", "--seed", "1", "--out", "out.csv"],
    ["basis", "--map", "basilica", "--out", "out.json"],
    # Chebyshev's Julia set meets its critical point: sector ladders, the
    # pool mask and the vanishing tail's branch-side centre.
    ["basis", "--map", "chebyshev", "--out", "out.json"],
    ["verify", "all", "--map", "quad", "--seed", "7"],
    ["verify", "all", "--map", "basilica", "--depth", "9", "--seed", "1"],
    ["verify", "all", "--map", "basilica", "--depth", "14", "--seed", "1",
     "--trials", "3", "--pairs", "3"],
    # 2048-atom levels: the suite checks its trials in chunks of several rows.
    ["verify", "all", "--map", "basilica", "--depth", "11", "--seed", "2",
     "--trials", "40", "--pairs", "20"],
    ["verify", "all", "--map", "chebyshev", "--depth", "8", "--seed", "4"],
    # Rooted at 2, every level from 2 on has the one-child parent -2 -> 0,
    # so its sibling blocks are padded.
    ["verify", "all", "--map", "chebyshev", "--w", "2,0", "--depth", "8", "--seed", "4"],
    # Reconstruction sums over covers wider than two elements.
    ["verify", "key_lemma", "--map", "chebyshev", "--depth", "12", "--seed", "4"],
    # Newton's map for z^3 - 1 rooted off the real line: 141 bumps on 19683
    # sibling-fiber points, a cover taken in many blocks.
    ["verify", "key_lemma", "--num=1,0;0,0;0,0;2,0", "--den=0,0;0,0;3,0", "--w", "0.31,0.17",
     "--depth", "8", "--seed", "1"],
    # z^3: sibling blocks of width 3, whose spectra take the eigensolver.
    ["verify", "all", "--num=0,0;0,0;0,0;1,0", "--den=1,0", "--depth", "5", "--seed", "1"],
    # (u^2 + 1) / (2u), z^2 conjugated by the Cayley map: its Julia set is
    # the imaginary axis through infinity, and its depth-12 atoms reach |u| ~ 3000.
    ["verify", "invariance", "--num=1,0;0,0;1,0", "--den=0,0;2,0", "--depth", "12",
     "--seed", "1"],
    # The covariance relation on the same Cayley-map tree: its weighted sums
    # span many binades.
    ["verify", "covariance", "--num=1,0;0,0;1,0", "--den=0,0;2,0", "--depth", "12",
     "--seed", "1"],
    # transfer_power through the orbit memo at a complex root: levels of 1
    # to 2048 rows, most of them a few rows.
    ["transfer", "--map", "basilica", "--w", "0.03546487410077015,1.351391088977806",
     "--f", "x2", "--power", "12"],
    # One fiber through the one-row front.
    ["preimages", "--map", "basilica", "--w", "0.5,0.25"],
]


def digest(argv: list) -> str:
    """The sha256 of one command's output, its exit code and the command."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "lyubich_lab.cli", *argv],
                              cwd=cwd, env=env, capture_output=True, check=False)
        out = os.path.join(cwd, argv[argv.index("--out") + 1]) if "--out" in argv else ""
        if os.path.exists(out):
            with open(out, "rb") as handle:
                output = handle.read()
        else:
            output = b"".join(line for line in proc.stdout.splitlines(keepends=True)
                              if b'"generated_at"' not in line)
    return f"{hashlib.sha256(output).hexdigest()}  exit={proc.returncode}  {' '.join(argv)}"


def main() -> int:
    for argv in COMMANDS:
        print(digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
