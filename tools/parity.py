"""Byte parity of the CLI's artifacts between two versions of the package.

Usage, from the root of a checkout:

    python3 tools/parity.py A B

A and B are each a source tree (a directory holding src/eprenorm) or a git
revision of this repository, which is unpacked with ``git archive <rev> src |
tar -x`` into a temporary directory.  Each side runs one fixed corpus in its
own interpreter, calling eprenorm.cli.main(argv) in-process one run after
another at SOURCE_DATE_EPOCH=1756080000, with stdout and stderr captured and
the side's own directory written as <side> in them.  The corpus is:

- every scan, sweep and selfcheck device of bench seeds 1-3, drawn by
  bench/workloads.py, with its static argv; the scan probe is centred on the
  device's first-order g_ep estimate, so no run depends on a side's output;
- the five golden argv of tests/test_golden.py at the default configuration;
- the same five argv on each edge config of EDGE_CONFIGS, spectrum
  --markovian-only on the gamma_zero edge, the one argv that reaches the
  dip search at gamma = 0, and eigs --markovian-ref --g-min 0 on the
  kappa_equals_gamma edge, whose first row holds an exact double root;
- eigs --markovian-ref and petermann --delta-mode markovian at the default
  configuration on TOP_OF_RANGE_GRID, a coupling grid that reaches the top
  of the double range;
- ep, eigs --delta-mode exact and petermann --delta-mode both on the
  strongly over-damped devices of OVERDAMPED_PINNED and on OVERDAMPED_DRAWS
  seeded draws over OVERDAMPED_RANGES, each g grid centred on the device's
  memoryless g_ep;
- every run above once as CSV and once as JSON;
- the argv forms of ARGV_FORMS, once each at the default configuration:
  help and each command's help, an abbreviation, --flag=value, negative
  values, a repeated option, a repeated flag, and the usage errors of a
  missing or bad value, an unknown flag, a second command, --json after the
  command, an empty argv, "--" before or after the command, an option where
  a value belongs and a value "-1e" that reads as neither a number nor an
  option string, so that argparse's help, usage and error bytes are
  compared too.

The report gives the number of runs whose exit code, stdout and stderr are
byte-identical.  For every other run it names the changed exit code, the
stderr lines only one side printed, and each manifest key, summary key,
footer key or table column that differs, with its largest relative
deviation |a - b| / max(|a|, |b|) over the column's cells.  A last-bit move
is thus stated as a number, not hidden behind a hash.  Past an exact
coalescence, continuity labels hinge on last bits, so a table row can hold
the same branches on both sides in another order.  Where every cell of such
a row is within LABEL_RTOL of its counterpart after reordering (relative to
the largest magnitude of its field in the row), the row is counted under
its column family (re_l*/im_l*, mk_re_l*/mk_im_l*, and each suffix's
k_*/div_*) as "labels exchanged in k of N rows", and its cells are compared
in A's order.  Exit code 0 when every run is identical, 1 when any differs,
2 when a side cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EPOCH = "1756080000"
SEEDS = (1, 2, 3)
# The argv of tests/test_golden.py's CASES (a test keeps the two equal).
GOLDEN_ARGV = {
    "ep": ["ep"],
    "eigs": ["eigs", "--g-points", "41", "--markovian-ref"],
    "petermann": ["petermann", "--g-points", "41", "--delta-mode", "both"],
    "spectrum": ["spectrum", "--omega-points", "201"],
    "embedcheck": ["embedcheck"],
}
# Argv forms beyond the plain [global option]* command [command option]* (run as they stand).
ARGV_FORMS = {
    "help": ["-h"],
    **{f"{command}-help": [command, "-h"] for command in GOLDEN_ARGV},
    "abbreviation": ["eigs", "--g-mi", "45", "--g-points", "5"],
    "equals": ["eigs", "--g-min=45", "--g-points", "5"],
    "negative-exponent": ["eigs", "--g-min", "-1e3"],
    "negative-fraction": ["petermann", "--g-min", "-.5"],
    "negative-detuning": ["petermann", "--delta-mode", "value:-2e6", "--g-points", "2"],
    "repeated": ["eigs", "--g-points", "41", "--g-points", "5"],
    "missing-value": ["eigs", "--g-points"],
    "bad-int": ["eigs", "--g-points", "x"],
    "infinite": ["eigs", "--g-min", "inf"],
    "unknown-flag": ["eigs", "--bogus-flag"],
    "second-command": ["ep", "ep"],
    "json-after-command": ["ep", "--json"],
    "empty": [],
    "end-of-options-first": ["--", "ep"],
    "end-of-options-last": ["ep", "--"],
    "option-as-value": ["--config", "--json", "ep"],
    "repeated-flag": ["--json", "--json", "ep"],
    "bare-exponent": ["eigs", "--g-min", "-1e"],
}
# Couplings 0 to 2.7e304 kHz, about 1.7e308 rad/s: branch ordering and tracking must not overflow.
TOP_OF_RANGE_GRID = ["--g-min", "0", "--g-max", "2.7e304", "--g-points", "3"]
# Configs at the edges of what the commands accept, over the built-in defaults.
EDGE_CONFIGS = {
    # Outside the resolved-sideband regime (a warning), where the first-order
    # EP shift overshoots to a blue detuning.
    "overshoot": "[mechanics]\nfreq_hz = 1e6\ngamma_hz = 4.5e6\n[cavity]\nkappa_hz = 5e6\n"
    "[bath]\ncutoff_hz = 1e6\n",
    "gamma_zero": "[mechanics]\ngamma_hz = 0\n",
    "kappa_below_gamma": "[mechanics]\ngamma_hz = 5e3\n[cavity]\nkappa_hz = 4e3\n",
    "range_end": "[mechanics]\nfreq_hz = 1e-30\ngamma_hz = 0\n[cavity]\nkappa_hz = 1e-29\n"
    "[bath]\ncutoff_hz = 1e-30\n",
    # A bath 1e9 times faster than the mechanics: the hybrid pair sits near 1e-9
    # of the bath root, so an eigensolver that loses digits to the row scale shows.
    "fast_bath": "[bath]\ncutoff_hz = 1e15\n",
    # A coupled bath (gamma > 0) 1e26 times slower than the mechanics: its root
    # sits far below the row scale, so a root that keeps only that scale's digits shows.
    "slow_bath": "[bath]\ncutoff_hz = 1e-20\n",
    # A line so narrow that the dip bracket is about one ulp of omega_m: float
    # granularity, not the golden section's xtol, ends the dip search.
    "tiny_gamma": "[mechanics]\ngamma_hz = 1e-8\n",
    # kappa = gamma: at delta = -omega_m and g = 0 the memoryless block's two
    # eigenvalues are one exact double root, so the ordering's tie rules decide
    # row 0 of an eigs --markovian-ref sweep from g = 0.
    "kappa_equals_gamma": "[mechanics]\ngamma_hz = 2e5\n[cavity]\nkappa_hz = 2e5\n",
}
# Over-damped devices (kappa >> omega_m) in rad/s, as tests/test_epsolver.py pins
# them (a test keeps the two equal): plain Newton cycles on the first, and on the
# second reaches a different certified EP than a line-searched Newton did.
OVERDAMPED_PINNED = {
    "cycle": dict(omega_m=299741523796.9112, kappa=85257765780723.0,
                  gamma=3236379298285.6133, omega_c=23931825471875.227),
    "other_ep": dict(omega_m=3001157.0975662116, kappa=2858589053.316626,
                     gamma=389652992.49638826, omega_c=838979970.3709348),
}
# Log-uniform ranges of the seeded over-damped draws: omega_m / 2 pi in Hz, and
# kappa / omega_m, gamma / kappa and Omega_c / omega_m.
OVERDAMPED_RANGES = {"freq_hz": (1.0, 1e6), "kappa": (30.0, 1e3), "gamma": (1e-6, 0.5), "omega_c": (1e-3, 1e3)}
OVERDAMPED_DRAWS = 24
OVERDAMPED_SEED = 12
# Table columns holding one field of each branch: eigs' eigenvalue parts and
# petermann's K and flag, one family per prefix or calibration suffix.
BRANCH_COLUMNS = (
    (re.compile(r"column (mk_|)(re|im)_l(\d)_khz"), lambda m: (f"{m[1]}re_l*/{m[1]}im_l*", m[2], m[3])),
    (re.compile(r"column (k|div)_(plus|minus|3)(.*)"), lambda m: (f"k_*{m[3]}/div_*{m[3]}", m[1], m[2])),
)
# Largest relative deviation of a cell from its counterpart in a row whose labels are exchanged.
LABEL_RTOL = 1e-9


def overdamped_devices() -> dict:
    """Name -> (freq_hz, kappa_hz, gamma_hz, cutoff_hz) of the over-damped block."""
    devices = {name: tuple(dev[key] / (2.0 * math.pi) for key in ("omega_m", "kappa", "gamma", "omega_c"))
               for name, dev in OVERDAMPED_PINNED.items()}
    rng = random.Random(OVERDAMPED_SEED)
    for k in range(OVERDAMPED_DRAWS):
        ratio = {key: math.exp(rng.uniform(math.log(lo), math.log(hi))) for key, (lo, hi) in OVERDAMPED_RANGES.items()}
        kappa_hz = ratio["kappa"] * ratio["freq_hz"]
        devices[f"d{k:02d}"] = (ratio["freq_hz"], kappa_hz, ratio["gamma"] * kappa_hz, ratio["omega_c"] * ratio["freq_hz"])
    return devices


def build_corpus(directory: str) -> list:
    """The runs [{"id", "argv"}], with every config they read written under directory."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    def both_formats(run_id, argv):
        argv = [arg for arg in argv if arg != "--json"]
        return [{"id": f"{run_id}-csv", "argv": argv}, {"id": f"{run_id}-json", "argv": ["--json", *argv]}]

    runs = []
    for workload in ("scan", "sweep", "selfcheck"):
        for seed in SEEDS:
            inputs = workloads.generate(workload, seed)
            workloads.write_configs(inputs, os.path.join(directory, f"{workload}{seed}"))
            paths = workloads.config_paths(inputs, os.path.join(directory, f"{workload}{seed}"))
            for k, (dev, path) in enumerate(zip(inputs.devices, paths)):
                argvs = workloads.static_argv(workload, dev, path)
                if workload == "scan":
                    argvs.append(workloads.scan_probe_argv(path, dev.g_ep_estimate_khz()))
                for argv in argvs:
                    command = next(arg for arg in argv if arg in GOLDEN_ARGV)
                    runs += both_formats(f"{workload}-s{seed}-d{k}-{command}", argv)
    for name, argv in GOLDEN_ARGV.items():
        runs += both_formats(f"golden-{name}", argv)
    for edge, text in EDGE_CONFIGS.items():
        path = os.path.join(directory, f"{edge}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        for name, argv in GOLDEN_ARGV.items():
            runs += both_formats(f"edge-{edge}-{name}", ["--config", path, *argv])
    for argv in (["eigs", "--markovian-ref"], ["petermann", "--delta-mode", "markovian"]):
        runs += both_formats(f"top-of-range-{argv[0]}", [*argv, *TOP_OF_RANGE_GRID])
    runs += both_formats("edge-gamma_zero-spectrum-markovian-only",
                         ["--config", os.path.join(directory, "gamma_zero.ini"), *GOLDEN_ARGV["spectrum"],
                          "--markovian-only"])
    runs += both_formats("edge-kappa_equals_gamma-eigs-from-zero",
                         ["--config", os.path.join(directory, "kappa_equals_gamma.ini"), "eigs", "--markovian-ref",
                          "--g-min", "0"])
    for name, (freq_hz, kappa_hz, gamma_hz, cutoff_hz) in overdamped_devices().items():
        path = os.path.join(directory, f"overdamped-{name}.ini")
        g_hz = (kappa_hz - gamma_hz) / 4.0
        with open(path, "w") as fh:
            fh.write(f"[mechanics]\nfreq_hz = {freq_hz!r}\ngamma_hz = {gamma_hz!r}\n[cavity]\nkappa_hz = {kappa_hz!r}\n"
                     f"[bath]\ncutoff_hz = {cutoff_hz!r}\n[drive]\ndetuning_hz = {-freq_hz!r}\ncoupling_hz = {g_hz!r}\n")
        window = ["--g-min", repr(0.8 * g_hz / 1e3), "--g-max", repr(1.2 * g_hz / 1e3), "--g-points", "41"]
        for argv in (["ep"], ["eigs", "--delta-mode", "exact", *window], ["petermann", "--delta-mode", "both", *window]):
            runs += both_formats(f"overdamped-{name}-{argv[0]}", ["--config", path, *argv])
    runs += [{"id": f"argv-{name}", "argv": argv} for name, argv in ARGV_FORMS.items()]
    return runs


def run_corpus(side: str, corpus_path: str, results_path: str) -> None:
    """Child side: run every corpus entry through side's eprenorm.cli.main, in order."""
    sys.path.insert(0, os.path.join(side, "src"))
    from eprenorm import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(side, "src", "")):
        raise SystemExit(f"parity: imported {cli.__file__}, not the side's own tree {side}")
    with open(corpus_path) as fh:
        runs = json.load(fh)
    results = {}
    for run in runs:
        out, err = io.StringIO(), io.StringIO()
        # A fresh filter state per run shows each warning as a fresh CLI process would.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            try:
                code = cli.main(run["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an escaping exception is a result to compare, too
                code = "raised"
                err.write(traceback.format_exc())
        results[run["id"]] = {
            "code": code,
            "out": out.getvalue().replace(side, "<side>"),
            "err": err.getvalue().replace(side, "<side>"),
        }
    with open(results_path, "w") as fh:
        json.dump(results, fh)


def _fields(text: str) -> dict:
    """Name -> list of value texts of one artifact: manifest, summary and footer
    keys, and one entry per table column."""
    if text.startswith("{"):
        doc = json.loads(text)
        fields = {}
        for name, column in zip(doc.pop("columns", []), zip(*doc.pop("rows", []))):
            fields[f"column {name}"] = list(column)

        def flatten(prefix, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    flatten(f"{prefix}.{key}" if prefix else key, item)
            else:
                fields[prefix] = value if isinstance(value, list) else [value]

        flatten("", doc)
        return fields
    fields, header, rows = {}, None, []
    for line in text.splitlines():
        body = line[2:] if line.startswith("# ") else line
        if " = " in body:
            key, _, value = body.partition(" = ")
            fields[key] = [value]
        elif line.startswith("#"):
            fields[line] = [line]
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    for name, column in zip(header or [], zip(*rows)):
        fields[f"column {name}"] = list(column)
    return fields


def _number(value):
    """value as a float (None reads as nan, JSON's form of a non-finite cell), or None."""
    if value is None:
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _deviation(a, b) -> float | None:
    """Relative deviation of two values; None when either is not a number."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _branch_families(fields: dict) -> dict:
    """Family label -> [[column of each field] per branch] for the BRANCH_COLUMNS in fields."""
    families = {}
    for name in fields:
        for pattern, parts in BRANCH_COLUMNS:
            match = pattern.fullmatch(name)
            if match:
                family, field, branch = parts(match)
                families.setdefault(family, {}).setdefault(branch, {})[field] = name
    return {family: [[columns[field] for field in sorted(columns)] for _, columns in sorted(branches.items())]
            for family, branches in families.items()}


def _undo_label_exchanges(fa: dict, fb: dict) -> list:
    """Put B's rows that hold A's branches in another order back in A's order
    (in fb), and return one line per column family naming how many rows that was.

    A row counts when some reordering of B's branches is closer to A's than
    their own order, with every cell within LABEL_RTOL of its counterpart,
    relative to the largest finite magnitude of its field (re, im, k or div)
    in that row on either side: an Im part that is 0 on one side and 1e-45 on
    the other matches, as its row's eigenvalues are about 1e3.
    """
    lines = []
    for family, branches in _branch_families(fa).items():
        columns = [name for branch in branches for name in branch]
        if len(branches) < 2 or any(name not in fb or len(fa[name]) != len(fb[name]) for name in columns):
            continue
        perms = list(itertools.permutations(range(len(branches))))
        n_rows = len(fa[columns[0]])
        exchanged = 0
        for row in range(n_rows):
            if all(fa[name][row] == fb[name][row] for name in columns):
                continue
            a, b = ([[_number(side[name][row]) for name in branch] for branch in branches] for side in (fa, fb))
            if any(x is None for cells in a + b for x in cells):
                continue
            scales = [max((abs(cells[f]) for cells in a + b if math.isfinite(cells[f])), default=0.0)
                      for f in range(len(a[0]))]

            def deviation(perm):
                devs = [0.0 if x == y or (math.isnan(x) and math.isnan(y))
                        else abs(x - y) / scale if math.isfinite(x) and math.isfinite(y) else math.inf
                        for cells, source in zip(a, perm) for x, y, scale in zip(cells, b[source], scales)]
                return max(devs)

            devs = [deviation(perm) for perm in perms]
            best = min(range(len(perms)), key=devs.__getitem__)
            if best and devs[best] <= LABEL_RTOL:
                cells = {name: fb[other][row] for branch, source in zip(branches, perms[best])
                         for name, other in zip(branch, branches[source])}
                for name, cell in cells.items():
                    fb[name][row] = cell
                exchanged += 1
        if exchanged:
            lines.append(f"columns {family}: labels exchanged in {exchanged} of {n_rows} rows")
    return lines


def compare(a: str, b: str) -> list:
    """One line per field in which artifact texts a and b differ; [] when the
    texts are identical."""
    if a == b:
        return []
    if not a or not b:
        return [f"output only in {'A' if a else 'B'}"]
    try:
        fa, fb = _fields(a), _fields(b)
    except ValueError as exc:
        return [f"unreadable artifact: {exc}"]
    lines = [f"{name}: only in {side}" for side, names in (("A", fa.keys() - fb.keys()), ("B", fb.keys() - fa.keys()))
             for name in sorted(names)]
    lines += _undo_label_exchanges(fa, fb)
    for name in fa.keys() & fb.keys():
        va, vb = fa[name], fb[name]
        if va == vb:
            continue
        if len(va) != len(vb):
            lines.append(f"{name}: {len(va)} values -> {len(vb)}")
            continue
        devs = [_deviation(x, y) for x, y in zip(va, vb) if x != y]
        if any(dev is None for dev in devs):
            lines.append(f"{name}: text differs")
        else:
            lines.append(f"{name}: max rel dev {max(devs):.3g} ({len(devs)} of {len(va)} values)")
    # Texts that differ in no field differ in layout alone.
    return sorted(lines) or ["layout differs (every field is equal)"]


def compare_runs(a: dict, b: dict) -> list:
    """Difference lines of one corpus run between the sides."""
    lines = [] if a["code"] == b["code"] else [f"exit code {a['code']} -> {b['code']}"]
    if a["err"] != b["err"]:
        err_a, err_b = a["err"].splitlines(), b["err"].splitlines()
        changed = [f"stderr - {line}" for line in err_a if line not in err_b]
        changed += [f"stderr + {line}" for line in err_b if line not in err_a]
        lines += changed or ["stderr: the same lines in another order or number"]
    return lines + compare(a["out"], b["out"])


class SideError(Exception):
    """A side spec that is neither a source tree nor a git revision, or a revision that cannot be unpacked."""


def _side_tree(spec: str, scratch: str, label: str) -> tuple:
    """(directory holding src/eprenorm, commit) for a git revision, unpacked into scratch/label;
    (the tree itself, None) for a source tree."""
    if os.path.isdir(os.path.join(spec, "src", "eprenorm")):
        return os.path.abspath(spec), None
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        raise SideError(f"{spec!r} is neither a directory holding src/eprenorm nor a git revision")
    commit = rev.stdout.strip()
    tree = os.path.join(scratch, label)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit, "src"], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SideError(f"cannot unpack revision {spec!r}")
    return tree, commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="source tree or git revision (the reference side)")
    parser.add_argument("b", help="source tree or git revision (the side compared to it)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        try:
            trees = {label: _side_tree(spec, scratch, label)[0] for label, spec in (("A", args.a), ("B", args.b))}
        except SideError as exc:
            print(f"parity: {exc}", file=sys.stderr)
            return 2
        corpus_path = os.path.join(scratch, "corpus.json")
        with open(corpus_path, "w") as fh:
            json.dump(build_corpus(os.path.join(scratch, "configs")), fh)
        procs = {}
        for label, tree in trees.items():
            results_path = os.path.join(scratch, f"results_{label}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--run", tree, corpus_path, results_path]
            procs[label] = (subprocess.Popen(cmd, env={**os.environ, "SOURCE_DATE_EPOCH": EPOCH}), results_path)
        # Wait for both sides before reading either, so no child outlives the scratch directory.
        codes = {label: proc.wait() for label, (proc, _) in procs.items()}
        results = {}
        for label, (_, results_path) in procs.items():
            if codes[label] != 0:
                print(f"parity: side {label} ({trees[label]}) exited {codes[label]}", file=sys.stderr)
                return 2
            with open(results_path) as fh:
                results[label] = json.load(fh)
    print(f"A = {args.a}\nB = {args.b}")
    differing = {run_id: compare_runs(run, results["B"][run_id]) for run_id, run in results["A"].items()
                 if run != results["B"][run_id]}
    print(f"identical: {len(results['A']) - len(differing)} of {len(results['A'])} runs")
    for run_id, lines in differing.items():
        print(f"{run_id}:")
        for line in lines:
            print(f"  {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:  # one side's child interpreter
        run_corpus(*sys.argv[2:5])
    else:
        sys.exit(main())
