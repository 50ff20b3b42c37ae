#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|point|served --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke   # short self-check of every workload
    python3 perfbench/run.py --pin     # re-pin perfbench/digests.txt

The simulator, ara_serve and the ara_perfbench driver are built from the
sources beside this file into .bench_build/ at the repository root (the
first run builds; later runs only check the build is current). The last
line of standard output is the driver's JSON result; build output goes to
standard error. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "run")
DIGESTS = os.path.join(HERE, "digests.txt")
TARGETS = ["ara_perfbench", "ara_serve", "ara_json_check"]
RUN_TIMEOUT_S = 175


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target"] + TARGETS)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    os.makedirs(OUT, exist_ok=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names]
    files += [os.path.join(ROOT, "tools", n)
              for n in ("ara_serve.cc", "ara_json_check.cc")]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    except OSError:
        return "none"


def driver_cmd(workload, seed, seconds, trace, extra=()):
    return [os.path.join(BUILD, "ara_perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--digests", DIGESTS,
            "--serve", os.path.join(BUILD, "ara_serve"),
            "--commit", git_commit(), "--source-digest", source_digest()] + list(extra)


def run_driver(cmd, capture):
    """Run the driver in its own process group. Whatever is left of the
    group when it ends (a daemon or child it could not stop) is killed."""
    proc = subprocess.Popen(cmd, cwd=OUT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, timed_out = None, True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if timed_out:
        die("driver timed out after %d s" % RUN_TIMEOUT_S)
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def smoke():
    """Every metric BENCHMARK.json names is printed with its unit, the JSON
    line passes ara_json_check, and the digest negative control fires."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    check_file = os.path.join(OUT, "smoke-result.json")

    def result(workload, trace, extra=()):
        proc = run_driver(driver_cmd(workload, 1, 1, trace, extra), True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append("%s trace=%d: exit %d" % (workload, trace,
                                                      proc.returncode))
            return None
        with open(check_file, "w") as f:
            f.write(lines[-1] + "\n")
        if subprocess.run([os.path.join(BUILD, "ara_json_check"),
                           check_file]).returncode != 0:
            problems.append("%s trace=%d: ara_json_check rejects the result"
                            % (workload, trace))
        return json.loads(lines[-1])

    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = result(w["name"], trace)
            if r is None:
                continue
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s trace=%d: keys %s" % (w["name"], trace,
                                                          sorted(r)))
            if not r["correct"] or r["failed"] != 0:
                problems.append("%s trace=%d: outputs failed their check"
                                % (w["name"], trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if want != got:
                problems.append("%s trace=%d: metrics %s, BENCHMARK.json %s"
                                % (w["name"], trace, got, want))
    control = result("sweep", 0, ["--corrupt-digests"])
    if control is not None and (control["correct"] or control["failed"] == 0):
        problems.append("negative control: corrupted digests were accepted")
    for p in problems:
        print("smoke: FAIL: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["sweep", "point", "served"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.smoke or args.pin):
        ap.error("one of --workload, --smoke or --pin is required")
    build()
    if args.smoke:
        return smoke()
    if args.pin:
        return run_driver([os.path.join(BUILD, "ara_perfbench"), "--pin",
                           "--digests", DIGESTS], False).returncode
    cmd = driver_cmd(args.workload, args.seed,
                     ("%g" % args.seconds), args.trace)
    return run_driver(cmd, False).returncode


if __name__ == "__main__":
    sys.exit(main())
