#!/usr/bin/env python3
"""Benchmark of the R-TBS / T-TBS samplers, measured from outside the program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call compiles the program (src/main/scala) together with the
benchmark (perfbench/src) with the Scala compiler that ships with Spark, into
perfbench/build; later calls reuse that build while the sources are unchanged.
One run starts one JVM, which prints its progress to stderr; the last line of
standard output is the result object. Workloads, metrics and the reasons for
them are described in perfbench/spec.json.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
WORK = os.path.join(HERE, "work")
WORKLOADS = ["local-ols", "spark-dist-cp", "spark-dttbs", "stream-small"]
# Fixed driver heap, so heap and GC figures compare across runs and commits.
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# Module access Spark needs on Java 17 (the set spark-submit passes).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def java_bin():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if exe:
            home = os.path.dirname(os.path.dirname(os.path.realpath(exe)))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        fail("no program sources under src/main/scala; run from the root of a checkout")
    return program + sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))


def build(jars):
    """Compile program and benchmark once per distinct source tree."""
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    print(f"perfbench: sources sha256 {digest.hexdigest()}", file=sys.stderr)
    stamp = os.path.join(BUILD, "stamp")
    classes = os.path.join(BUILD, "classes")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest.hexdigest():
                return classes
    shutil.rmtree(BUILD, ignore_errors=True)
    os.makedirs(classes)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    cmd = [java_bin(), "-Xmx2g", "-Xss8m", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes] + srcs
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("compilation timed out")
    if proc.returncode != 0:
        fail("compilation failed")
    with open(stamp, "w") as f:
        f.write(digest.hexdigest())
    return classes


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def java(jars, classes, main, args):
    shutil.rmtree(WORK, ignore_errors=True)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp)
    cmd = ([java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Djdk.reflect.useDirectMethodHandle=false"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classes + os.pathsep + os.path.join(jars, "*"), main] + args)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=WORK)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own checks on broken samplers")
    a = ap.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    jars = spark_jars()
    classes = build(jars)
    if a.selftest:
        sys.exit(java(jars, classes, "perfbench.SelfTest", []))

    out = os.path.join(HERE, "build", "result.json")
    if os.path.exists(out):
        os.remove(out)
    code = java(jars, classes, "perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--cores", str(cores()), "--work", WORK, "--out", out])
    shutil.rmtree(WORK, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        fail(f"benchmark JVM exited with code {code}")
    with open(out) as f:
        result = json.loads(f.read())
    names = expected_metrics(a.trace == 1)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(names)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
