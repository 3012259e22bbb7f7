#!/usr/bin/env python3
"""Builds e2e_profile from source and runs one workload of the benchmark.

    python3 e2ebench/run.py --workload fleet_campaign --seed 1 --seconds 45 --trace 0
    python3 e2ebench/run.py --selftest [--seed 1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/; traced runs write their span file under
<build dir>/e2e_traces/. Everything the binary prints is passed through;
the last line is the result object, with its metrics checked against
BENCHMARK.json: every end-to-end metric (untraced run) or every per-layer
metric (traced run), in file order, with the declared unit. A per-layer
metric of a layer the workload never calls reads 0; one of a layer it
does call must be measured, and be non-zero unless it may read 0.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Per-layer metrics by the workload that measures them (name prefixes);
# the rest of BENCHMARK.json's per-layer metrics are fleet_campaign's.
SCENES_ONLY = ("scenario_ms_", "obs.trace_", "obs.share_of_job", "exp.", "apps.")
SHARED = ("core.windows_", "bench.", "failed_frac")
# Measured metrics that may read 0 or less: a share of failed ops, a kill
# a fleet may never see, scheduler counters that depend on timing (no
# steals with one worker), and differences that noise can flip.
MAY_BE_ZERO = {"failed_frac", "fw.lmk_kills", "fleet.sched.steals",
               "fleet.sched.parks", "fleet.sched.injection_refills",
               "bench.span_overhead_frac", "fleet.rss_growth_kb_per_device_h"}


def measures(workload, name):
    if name.startswith(SHARED):
        return True
    return name.startswith(SCENES_ONLY) == (workload == "paper_scenes")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (a second or so once cached), then builds what is stale."""
    generator = []
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        generator = ["-G", "Ninja"]
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    command = ["cmake", "--build", str(build_dir), "--target", "e2e_profile", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "e2e_profile"


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha():
    """Identifies the code measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def checked_result(line, workload, traced):
    """The binary's result object, with metrics in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    result = json.loads(line)
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        name = m["name"]
        expected = not traced or measures(workload, name)
        got = measured.get(name)
        if got is None and expected:
            fail(f"{workload} did not measure {name}")
        if got is not None and not expected:
            fail(f"{workload} measured {name}, which belongs to another workload")
        if got is None:
            got = {"value": 0, "unit": m["unit"]}
        elif not got["value"] > 0 and name not in MAY_BE_ZERO:
            fail(f"{name} is {got['value']} on {workload}")
        if got["unit"] != m["unit"]:
            fail(f"{name}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        metrics[name] = got
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="determinism self-test instead of a measured run")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(build_dir)
    command = [str(binary), "--seed", str(args.seed)]
    if args.selftest:
        sys.exit(subprocess.run(command + ["--selftest"]).returncode)

    span_dir = build_dir / "e2e_traces"
    span_dir.mkdir(parents=True, exist_ok=True)
    command += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--span-dir", str(span_dir),
                "--source-sha", source_sha()]
    sha = git_sha()
    if sha:
        command += ["--git-sha", sha]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"e2e_profile exited with code {run.returncode}")
    print("\n".join(lines[:-1]))
    print(json.dumps(checked_result(lines[-1], args.workload, args.trace == 1)))


if __name__ == "__main__":
    main()
