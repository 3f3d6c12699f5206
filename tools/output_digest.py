"""Digest of the files and messages of reference command-line runs.

Runs, from the ``src/`` of the checkout this script sits in and inside a
temporary directory, nine runs and sweeps,

    phburgers sweep --hs 0.01               (table and 12 ledgers)
    phburgers run --h 1e-3 --beta 1         (ledger and 50 snapshots)
    phburgers run --config run.cfg          (h, alpha, beta, t_final, snapshots)
    phburgers sweep --hs 0.05 --t-final 0.1 --format text --workers 1
    phburgers run --h 0.01 --alpha 0.5 --beta 5 --t-final 0.05 --snapshots 3
                                            (stops early: dt underflow, exit 3)
    phburgers run --h 0.05 --beta 0 --t-final 0.2 --snapshots 4
                                            (inviscid: snapshots with zero e_r)
    phburgers run --h 0.01 --alpha 5e-324 --beta 0
                                            (refused: dt0 underflows to 0, exit 1)
    phburgers run --h 1e-9                  (refused: over 100,000 elements, exit 1)
    phburgers run --h 0.1 --snapshots 1     (refused: fewer than 2 snapshots, exit 1)

each into its own output directory there (``run.cfg`` is written into
the temporary directory first), and four oracle queries,

    phburgers oracle --shock-time
    phburgers oracle --solution 0.1 0.7
    phburgers oracle --solution 0.16 0.72
    phburgers oracle --shock-dissipation 1 0

and every demo under ``demos/``: 01 prints D's skew defect and max|D|
from the assembled matrices, and 03's sharp-front theory line is the one
output of ``diagnostics.shock_curve`` a command prints.

Prints one ``sha256  relative/path`` line per file, sorted, then each
command's exit code, stdout and stderr with the temporary directory
replaced by ``<out>``.  Two checkouts produced
the same bytes and said the same thing exactly when their listings are
equal:

    python3 tools/output_digest.py > before.txt    # in one checkout
    python3 tools/output_digest.py > after.txt     # in the other
    diff before.txt after.txt

Uses the standard library only and takes no options.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG_NAME = "run.cfg"
CONFIG_TEXT = "h = 0.05\nalpha = 0.5\nbeta = 2\nt_final = 0.2\nsnapshots = 5\n"

COMMANDS = (
    ("sweep", ["sweep", "--hs", "0.01"]),
    ("run", ["run", "--h", "1e-3", "--beta", "1"]),
    ("run_config", ["run", "--config", CONFIG_NAME]),
    ("sweep_text", ["sweep", "--hs", "0.05", "--t-final", "0.1", "--format", "text",
                    "--workers", "1"]),
    ("run_underflow", ["run", "--h", "0.01", "--alpha", "0.5", "--beta", "5",
                       "--t-final", "0.05", "--snapshots", "3"]),
    ("run_inviscid", ["run", "--h", "0.05", "--beta", "0", "--t-final", "0.2",
                      "--snapshots", "4"]),
    ("run_zero_dt0", ["run", "--h", "0.01", "--alpha", "5e-324", "--beta", "0"]),
    ("run_too_many_elements", ["run", "--h", "1e-9"]),
    ("run_one_snapshot", ["run", "--h", "0.1", "--snapshots", "1"]),
    ("oracle_shock_time", ["oracle", "--shock-time"]),
    ("oracle_solution", ["oracle", "--solution", "0.1", "0.7"]),
    ("oracle_solution_near_shock", ["oracle", "--solution", "0.16", "0.72"]),
    ("oracle_shock_dissipation", ["oracle", "--shock-dissipation", "1", "0"]),
)

MAIN = "import sys; from phburgers.cli import main; sys.exit(main(sys.argv[1:]))"
# each demo is named by its file name without the number: 03 is demo_energy_budget
DEMOS = tuple(("demo_" + path.stem.split("_", 1)[1], [str(path)])
              for path in sorted((SRC.parent / "demos").glob("*.py")))


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, CONFIG_NAME).write_text(CONFIG_TEXT)
        runs = [(name, ["-c", MAIN, *args] + (["--out-dir", os.path.join(tmp, name)]
                                              if args[0] in ("run", "sweep") else []))
                for name, args in COMMANDS]
        messages = []
        for name, argv in [*runs, *DEMOS]:
            proc = subprocess.run([sys.executable, *argv],
                                  cwd=tmp, env=env, capture_output=True, text=True)
            messages.append(f"{name}: exit {proc.returncode}")
            for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                messages += [f"{name}: {stream}: {line.replace(tmp, '<out>')}"
                             for line in text.splitlines()]
        root = Path(tmp)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
        print("\n".join(messages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
