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
of the CSV writer, a tree every level of which lies on the real line,
a tree with atoms at infinity, a tree of the cubic z^3 - 3z and a sampled tree of it (cubic rows take the closed
form, as quadratic rows do), a tree of a degree-4 Lattes map (its rows
take the Aberth iteration and the polish), two trees none of whose rows
is real (a real map rooted off the real line, and a map with a non-real
coefficient), the measure CSV of a tree
with double atoms, the integrals of named products and of a polynomial
spec against a chebyshev measure, a Julia sample, basis exports of basilica, of
chebyshev (whose Julia set meets a critical point, once more as its
stdout report) and of Newton's map for z^3 - 1 (degree 3, infinity in
its Julia set), ten verification
reports, two of them on chebyshev (one with padded sibling blocks), one
on basilica at depth 6 (whose two-path and sample levels lie below the
model's, in its one tree), one
with trials checked in chunks of several rows, one at 65536 atoms, whose
trials are checked one row at a time, one on z^3 (whose
sibling blocks of three take the eigensolver) and one on a degree-4
Lattes map (whose samples read a tree apart from the model's), the key lemma alone on
chebyshev at depth 12, a sector-ladder basis on a 4096-atom level whose
points lie in up to three supports, and on Newton's map for z^3 - 1,
whose 141 bumps take their cover tables on 19683 sibling-fiber points
block by block, and the invariance defect and the covariance relation
of z^2 conjugated by the Cayley map,
whose atoms reach large moduli and whose weighted sums span many
binades, a transfer power through the orbit memo, whose levels are
mostly a few rows, one fiber through the one-row front, and the
convergence report of README's example, two roots at three depths.
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
    # Rooted at its default root -1, every level real, so each level is
    # solved whole as its own fiber table and is never mirrored.
    ["tree", "--map", "chebyshev", "--depth", "14", "--out", "out.csv"],
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
    # The integrals of named products (x2 = re(z)^2, x4 its square) and a
    # polynomial spec, through integrate: the stdout report.
    ["measure", "--map", "chebyshev", "--w", "2,0", "--depth", "12", "--f", "x2", "x4",
     "abs2", "rez", "imz", "poly:1,1,0.5,0;0,0,-1,0"],
    ["julia", "--map", "basilica", "--size", "512", "--seed", "1", "--out", "out.csv"],
    ["basis", "--map", "basilica", "--out", "out.json"],
    # Chebyshev's Julia set meets its critical point: sector ladders, the
    # pool mask and the vanishing tail's branch-side centre.
    ["basis", "--map", "chebyshev", "--out", "out.json"],
    # The stdout report of the same basis: its element and sector counts.
    ["basis", "--map", "chebyshev"],
    # Newton's map for z^3 - 1: degree 3 and infinity in its Julia set.
    ["basis", "--num=1,0;0,0;0,0;2,0", "--den=0,0;0,0;3,0", "--out", "out.json"],
    ["verify", "all", "--map", "quad", "--seed", "7"],
    ["verify", "all", "--map", "basilica", "--depth", "9", "--seed", "1"],
    ["verify", "all", "--map", "basilica", "--depth", "14", "--seed", "1",
     "--trials", "3", "--pairs", "3"],
    # 65536-atom levels: each trial's polynomials take their own call.
    ["verify", "all", "--map", "basilica", "--depth", "16", "--seed", "1"],
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
    # The Lattes map (z^2 + 1)^2 / (4z(z^2 - 1)): degree 4, so its samples
    # take a sampled tree of their own, apart from the model's tree.
    ["verify", "all", "--num=1,0;0,0;2,0;0,0;1,0", "--den=0,0;-4,0;0,0;4,0", "--depth", "5",
     "--basis-count", "12", "--sample-size", "128", "--seed", "1"],
    # Basilica at m=6 from its default root: the model's levels, the
    # two-path levels to depth 8 and the samples' level 12 of one tree.
    ["verify", "all", "--map", "basilica", "--depth", "6", "--seed", "3"],
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
    # README's convergence example: one tree per root, read at each depth.
    ["converge", "--map", "quad", "--roots", "1,0", "2,0", "--depths", "4", "8", "12",
     "--f", "rez2"],
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
