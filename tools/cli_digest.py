"""One sha256 per output of a fixed list of seeded CLI commands.

    python tools/cli_digest.py [SRC]

SRC is a source tree: a checkout's root or its ``src`` directory (default:
this checkout's). The commands run in process against the ``infoflow``
package found there, inside a fresh temporary directory, so that no path
in an output depends on where it ran:

- ``simulate`` of chain_3 and confounder_3 at n = 1e4, seeds 1 and 2;
- on each panel, at k = 1, 2 and 4, each without and with 199 surrogates:
  ``matrix`` and ``estimate`` (text and JSON), ``graph`` (DOT and JSON) and
  ``window`` (2000/1000, CSV and JSON).

Each line is the sha256 of one output (the command's stdout, or a file
that ``simulate`` wrote), its exit code and the command. Two source trees
give byte-identical outputs exactly when ``diff`` of their listings is
empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

PANELS = [(name, seed) for name in ("chain_3", "confounder_3") for seed in (1, 2)]
N = 10_000
STRIDES = (1, 2, 4)
SURROGATES = (0, 199)
COMMANDS = (
    ("matrix",),
    ("matrix", "--json"),
    ("estimate", "--source", "1", "--target", "2"),
    ("estimate", "--source", "1", "--target", "2", "--json"),
    ("graph", "--format", "dot"),
    ("graph", "--format", "json"),
    ("window", "--window", "2000", "--step", "1000"),
    ("window", "--window", "2000", "--step", "1000", "--json"),
)


def _import_cli(src: Path):
    """``infoflow.cli.main`` from the package under ``src``."""
    if (src / "src" / "infoflow").is_dir():
        src = src / "src"
    if not (src / "infoflow").is_dir():
        raise SystemExit(f"no infoflow package under {src}")
    sys.path.insert(0, str(src.resolve()))
    from infoflow.cli import main

    print(f"# infoflow from {Path(sys.modules['infoflow'].__file__).parent}", file=sys.stderr)
    return main


def _run(main, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _line(data: bytes, code: int, argv: list[str]) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {code}  {' '.join(argv)}"


def main_digest(src: Path) -> int:
    main = _import_cli(src)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, seed in PANELS:
            csv = f"{name}-{seed}.csv"
            argv = ["simulate", "--benchmark", name, "--n", str(N), "--seed", str(seed), "-o", csv]
            code, _ = _run(main, argv)
            for path in (csv, f"{name}-{seed}.meta.json"):
                print(_line(Path(path).read_bytes(), code, argv + [f"[{path}]"]))
            for k in STRIDES:
                for surrogates in SURROGATES:
                    for command in COMMANDS:
                        argv = [command[0], csv, *command[1:], "--k", str(k),
                                "--surrogates", str(surrogates), "--seed", str(seed)]
                        code, out = _run(main, argv)
                        print(_line(out, code, argv))
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main_digest(root))
