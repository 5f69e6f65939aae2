"""One sha256 per output of a fixed list of seeded CLI commands, or how the
outputs of two source trees differ.

    python tools/cli_digest.py [SRC]
    python tools/cli_digest.py --compare OLD NEW

SRC is a source tree: a checkout's root or its ``src`` directory (default:
this checkout's). The commands run in process against the ``infoflow``
package found there, inside a fresh temporary directory, so that no path
in an output depends on where it ran:

- ``simulate`` of chain_3 and confounder_3 at n = 1e4, seeds 1 and 2;
- on each panel, at k = 1, 2 and 4, each without and with 199 surrogates:
  ``matrix`` and ``estimate`` (text and JSON), ``graph`` (DOT and JSON) and
  ``window`` (CSV and JSON) at 2000/1000, where each window is one step
  and a head, and at 2000/100, where it pools a head with runs of 1, 2
  and 16 steps, and ``window --json`` at 2000/100 of the one pair 1 -> 3,
  which reads a subset of each window's flows;
- refusals: ``estimate`` on a two-series panel with b = 2a (singular),
  ``matrix`` on a chain_3 panel of n = 6 at k = 1 (n - k = d + 2 samples)
  and ``simulate --n 1``;
- the time-column rules, on the chain_3 seed-1 panel: ``matrix
  --no-time-column`` (``t`` read as a series), ``matrix --time-column t``
  and the refusal of ``estimate`` with ``--dt`` beside the time column;
- ingest, on copies of the chain_3 seed-1 file: ``matrix --json`` with
  the first series labelled ``Niño3.4``, after a UTF-8 byte-order mark,
  with CRLF line ends and with every cell quoted, and the refusal of
  ``matrix`` on the file without one row, a gap in its time column;
- near-perfect fits: ``window --json`` at 100/50, without and with 19
  surrogates, of a panel whose x1 follows x2 without noise for its first
  300 samples and sits about 50 (``perfect.csv``), so that its early
  windows' residuals are recomputed from their own data.

That is 285 outputs. Each line is the sha256 of one output (the command's
stdout, or a file that ``simulate`` wrote, followed by its stderr when it
exits nonzero, so that a changed message counts), its exit code and the
command. Two source trees give byte-identical outputs exactly when
``diff`` of their listings is empty.

``--compare`` runs the commands against OLD and then NEW in one process
and prints a line for each output that differs (``classify``): whether
both parse as JSON to the same value (the same types, numbers and
strings, with keys in the same order), so that only the layout differs;
else whether only its whitespace differs (the two split on whitespace
into the same tokens, so ``x  y`` against ``x y`` counts but ``a b``
against ``ab`` does not); or else whether only its numeric tokens differ
and, if so, their largest relative difference; whether the exit codes
match; for ``graph``, whether the edge sets (self loops included) match;
for ``window``, whether the same windows are null. A summary follows. It
exits 1 when any output differs in more than its layout, whitespace or
numbers or in any of these, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

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
    ("window", "--window", "2000", "--step", "100"),
    ("window", "--window", "2000", "--step", "100", "--json"),
    ("window", "--window", "2000", "--step", "100", "--source", "1", "--target", "3", "--json"),
)


# A decimal number as the outputs print it: integer, fixed or exponent form.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _import_cli(src: Path):
    """``infoflow.cli.main`` from the package under ``src``; a package
    imported from another tree before is dropped first."""
    if (src / "src" / "infoflow").is_dir():
        src = src / "src"
    if not (src / "infoflow").is_dir():
        raise SystemExit(f"no infoflow package under {src}")
    for name in [name for name in sys.modules if name == "infoflow" or name.startswith("infoflow.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        from infoflow.cli import main
    finally:
        sys.path.pop(0)

    print(f"# infoflow from {Path(sys.modules['infoflow'].__file__).parent}", file=sys.stderr)
    return main


def _run(main, argv: list[str]) -> tuple[int, bytes]:
    """The exit code and output of one command: its stdout, and then its
    stderr when it exits nonzero."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + (err.getvalue() if code else "")).encode("utf-8")


def _refusals(main):
    """(command, exit code, output) of each command that must fail."""
    a = [(m * 37 % 101 - 50) / 8 for m in range(60)]
    Path("double.csv").write_text("a,b\n" + "".join(f"{x!r},{2 * x!r}\n" for x in a), encoding="utf-8")
    _run(main, ["simulate", "--benchmark", "chain_3", "--n", "6", "--seed", "1", "-o", "short.csv"])
    for argv in (["estimate", "double.csv", "--source", "a", "--target", "b"],
                 ["matrix", "short.csv", "--k", "1"],
                 ["simulate", "--benchmark", "chain_3", "--n", "1", "--seed", "1", "-o", "one.csv"]):
        yield (argv, *_run(main, argv))


def _time_columns(main):
    """(command, exit code, output) of each command that pins how the time
    column of a ``simulate`` file is read."""
    for argv in (["matrix", "chain_3-1.csv", "--no-time-column"],
                 ["matrix", "chain_3-1.csv", "--time-column", "t"],
                 ["estimate", "chain_3-1.csv", "--source", "1", "--target", "2", "--dt", "0.5"]):
        yield (argv, *_run(main, argv))


def _ingest_variants(main):
    """(command, exit code, output) of each command that pins how ingest
    reads a rewritten copy of the chain_3 seed-1 file."""
    text = Path("chain_3-1.csv").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    first, *rest = lines[0].split(",")
    variants = {
        "label.csv": ",".join([first, "Niño3.4", *rest[1:]]) + "".join(lines[1:]),
        "bom.csv": "\ufeff" + text,
        "crlf.csv": text.replace("\n", "\r\n"),
        "quoted.csv": "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
                              for line in text.splitlines()),
        "gap.csv": "".join(lines[:100] + lines[101:]),
    }
    for name, variant in variants.items():
        Path(name).write_bytes(variant.encode("utf-8"))
        argv = ["matrix", name] + (["--json"] if name != "gap.csv" else [])
        yield (argv, *_run(main, argv))


def _perfect_fit(main):
    """(command, exit code, output) of each ``window`` command on
    ``perfect.csv``: x2 white noise, x1[m + 1] = x1[m] + dt (2 x1[m] - x2[m]),
    plus 0.1 N(0, 1) from m = 300 on, then raised by 50 (n = 600, dt = 0.01)."""
    rng = np.random.default_rng(15)
    n, dt = 600, 0.01
    x2 = rng.standard_normal(n)
    x1 = [0.1]
    for m in range(n - 1):
        x1.append(x1[m] + dt * (2.0 * x1[m] - x2[m]) + (0.1 * rng.standard_normal() if m >= 300 else 0.0))
    rows = enumerate(zip((np.array(x1) + 50.0).tolist(), x2.tolist()))
    Path("perfect.csv").write_text("t,x1,x2\n" + "".join(f"{m * dt!r},{a!r},{b!r}\n" for m, (a, b) in rows),
                                   encoding="utf-8")
    for extra in ([], ["--surrogates", "19", "--seed", "1"]):
        argv = ["window", "perfect.csv", "--window", "100", "--step", "50", "--json", *extra]
        yield (argv, *_run(main, argv))


def _line(data: bytes, code: int, argv: list[str]) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {code}  {' '.join(argv)}"


def _outputs(main):
    """(command, exit code, output bytes) of every output, in listing order;
    the commands run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, seed in PANELS:
                csv = f"{name}-{seed}.csv"
                argv = ["simulate", "--benchmark", name, "--n", str(N), "--seed", str(seed), "-o", csv]
                code, _ = _run(main, argv)
                for path in (csv, f"{name}-{seed}.meta.json"):
                    yield argv + [f"[{path}]"], code, Path(path).read_bytes()
                for k in STRIDES:
                    for surrogates in SURROGATES:
                        for command in COMMANDS:
                            argv = [command[0], csv, *command[1:], "--k", str(k),
                                    "--surrogates", str(surrogates), "--seed", str(seed)]
                            code, out = _run(main, argv)
                            yield argv, code, out
            yield from _refusals(main)
            yield from _time_columns(main)
            yield from _ingest_variants(main)
            yield from _perfect_fit(main)
        finally:
            os.chdir(cwd)


def main_digest(src: Path) -> int:
    for argv, code, data in _outputs(_import_cli(src)):
        print(_line(data, code, argv))
    return 0


def _same_json_value(old: str, new: str) -> bool:
    """Whether both outputs parse as JSON to the same value: equal once
    each is written again by ``json.dumps``, so that a type (``1`` against
    ``1.0`` or ``true``), a string's spaces and the order of keys count."""
    try:
        return json.dumps(json.loads(old)) == json.dumps(json.loads(new))
    except ValueError:
        return False


def _max_relative_difference(old: str, new: str) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numeric tokens of two
    outputs, or None when they differ in anything else."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def classify(old: str, new: str) -> tuple[str, float | None]:
    """How two outputs that are not byte-identical differ, with the largest
    relative difference of their numbers where only numbers differ:
    "same JSON value" (``_same_json_value``), "whitespace only" (the same
    whitespace-split tokens), "numbers only" (``_max_relative_difference``)
    or "differs beyond numbers"; the first that holds."""
    if _same_json_value(old, new):
        return "same JSON value", None
    if old.split() == new.split():
        return "whitespace only", None
    relative = _max_relative_difference(old, new)
    return ("differs beyond numbers", None) if relative is None else ("numbers only", relative)


def _structure(argv: list[str], text: str):
    """What must not move with round-off: the edge set of a ``graph``
    output and the null windows of a ``window`` output; None for others."""
    as_json = "--json" in argv or "json" in argv  # window --json, graph --format json
    if argv[0] == "graph":
        if as_json:
            graph = json.loads(text)
            return ({(e["source"], e["target"]) for e in graph["edges"]}
                    | {(s["node"], s["node"]) for s in graph["self_loops"] if s["included"]})
        return set(re.findall(r'^\s*"([^"]*)" -> "([^"]*)"', text, re.MULTILINE))
    if argv[0] == "window":
        if as_json:
            return {(pair, w) for pair, values in json.loads(text)["series"].items()
                    for w, value in enumerate(values) if value is None}
        rows = [row.split(",")[1:] for row in text.splitlines()[1:]]
        return {(w, c) for w, row in enumerate(rows) for c, cell in enumerate(row) if cell == ""}
    return None


def main_compare(old: Path, new: Path) -> int:
    runs = [list(_outputs(_import_cli(src))) for src in (old, new)]
    identical = 0
    kinds = dict.fromkeys(("same JSON value", "whitespace only", "numbers only", "differs beyond numbers"), 0)
    worst = 0.0
    counts = {"exit codes": [0, 0], "graph edge sets": [0, 0], "window nulls": [0, 0]}  # [same, compared]
    for (argv, old_code, old_out), (_, new_code, new_out) in zip(*runs):
        same_code = old_code == new_code
        counts["exit codes"][0] += same_code
        counts["exit codes"][1] += 1
        old_text, new_text = old_out.decode("utf-8"), new_out.decode("utf-8")
        shape = None
        if old_code == 0 and new_code == 0 and argv[0] in ("graph", "window"):
            shape = _structure(argv, old_text) == _structure(argv, new_text)
            key = "graph edge sets" if argv[0] == "graph" else "window nulls"
            counts[key][0] += shape
            counts[key][1] += 1
        if same_code and old_out == new_out:
            identical += 1
            continue
        what, relative = classify(old_text, new_text)
        kinds[what] += 1
        if relative is not None:
            worst = max(worst, relative)
            what = f"{what}, max rel {relative:.2g}"
        notes = [what, "exit codes same" if same_code else f"exit codes {old_code} -> {new_code}"]
        if shape is not None:
            notes.append(("edges" if argv[0] == "graph" else "nulls") + (" same" if shape else " DIFFER"))
        print(f"{'; '.join(notes)}  {' '.join(argv)}")
    print(f"# {len(runs[0])} outputs: {identical} identical, {kinds['same JSON value']} the same JSON value,"
          f" {kinds['whitespace only']} differ only in whitespace,"
          f" {kinds['numbers only']} differ only in numbers (max rel {worst:.2g}),"
          f" {kinds['differs beyond numbers']} differ otherwise")
    print("# " + "; ".join(f"{name} identical {same}/{total}" for name, (same, total) in counts.items()))
    agree = kinds["differs beyond numbers"] == 0 and all(same == total for same, total in counts.values())
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            raise SystemExit("usage: cli_digest.py --compare OLD NEW")
        sys.exit(main_compare(Path(sys.argv[2]), Path(sys.argv[3])))
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main_digest(root))
