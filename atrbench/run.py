#!/usr/bin/env python3
"""Entry point of the ATR benchmark.

Usage, from the root of a checkout:

    python3 atrbench/run.py --workload gas-pokec --seed 108 --seconds 1 --trace 0

Builds the program and the benchmark from source on first use (sbt, offline),
then runs one benchmark process (atrbench.Main on a pinned JVM heap) and
passes its output through. The last line of standard output is the JSON
result. Build outputs, Spark scratch space and trace files stay under
`.bench_build/` in the checkout.

Exit codes: 0 all checks passed; 1 a check failed or the run crashed;
2 bad arguments or the checkout is incomplete; 3 the build failed;
4 the run timed out or printed no result.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "atrbench")

# Pinned so results do not depend on the build's SPARK_DRIVER_MEM fallback.
HEAP = "3g"
# A run takes --seconds of measurement plus this allowance for the set-ups,
# the warm-up, the reference and the checks.
RUN_ALLOWANCE_S = 160
BUILD_TIMEOUT_S = 600

# Module opens that spark-submit passes to a Java 17 driver.
OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, msg):
    print("atrbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), HERE]
    files = [os.path.join(ROOT, "build.sbt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".scala", ".sbt", ".properties", ".py"))]
    return sorted(set(files))


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def snapshot(cp, dest):
    """Copy the classpath entries that live in the checkout into `dest`.

    Compiles reuse the same `target/` directories whatever the sources are,
    so the cached classpath of a digest points at copies taken right after
    that digest's build. Jars outside the checkout (Spark, Scala) do not
    depend on the sources and stay shared.
    """
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    root = os.path.realpath(ROOT)
    entries = []
    for i, entry in enumerate(e for e in cp.split(os.pathsep) if e):
        if os.path.commonpath([os.path.realpath(entry), root]) != root:
            entries.append(entry)
            continue
        copy = os.path.join(dest, "cp%d-%s" % (i, os.path.basename(entry)))
        tmp_copy = os.path.join(tmp, os.path.basename(copy))
        if os.path.isdir(entry):
            shutil.copytree(entry, tmp_copy)
        elif os.path.isfile(entry):
            shutil.copy2(entry, tmp_copy)
        else:
            continue
        entries.append(copy)
    shutil.rmtree(dest, ignore_errors=True)
    os.rename(tmp, dest)
    return os.pathsep.join(entries)


def build(stamp):
    """Compile with sbt; return the runtime classpath, cached per digest."""
    dest = os.path.join(WORK, "build-" + stamp)
    cp_file = dest + ".classpath"
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            return fh.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail(3, "sbt not found on PATH")
    os.makedirs(WORK, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"),
           "atrbench/compile", "export atrbench/Runtime/fullClasspath"]
    print("atrbench: building (first run of these sources in this checkout)", file=sys.stderr)
    try:
        code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    with open(os.path.join(WORK, "build.log"), "w") as fh:
        fh.write(out)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(3, "build failed (exit %d)" % code)
    cp = snapshot(lines[-1].strip(), dest)
    with open(cp_file + ".tmp", "w") as fh:
        fh.write(cp)
    os.replace(cp_file + ".tmp", cp_file)
    return cp


def revision():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="graph seed (default: the preset's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and
            os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(2, "the program's sources (build.sbt, src/main/scala) are not in %s" % ROOT)
    java = shutil.which("java")
    if java is None:
        fail(2, "java not found on PATH")

    stamp = digest()
    cp = build(stamp)
    for d in ("tmp", "spark-local"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP] + OPENS + [
        "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
        "-Datrbench.revision=" + revision(), "-Datrbench.sources=" + stamp,
        "-cp", cp, "atrbench.Main", "--workload", args.workload,
        "--seconds", str(args.seconds), "--trace", args.trace, "--work", WORK]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    timeout = RUN_ALLOWANCE_S + args.seconds
    try:
        code, out = run_group(cmd, timeout, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %.0f s" % timeout)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 2:
        sys.exit(2)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError, AssertionError):
        fail(4, "the run printed no result line (exit %d)" % code)
    sys.exit(code)


if __name__ == "__main__":
    main()
