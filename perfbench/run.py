#!/usr/bin/env python3
"""Run one workload of the MTCSC benchmark and print its result line.

Run from the repository root:

    python3 perfbench/run.py --workload tao|fleet|stream --seed N \
        --seconds S --trace 0|1

The first run compiles the program (src/main/scala) and the benchmark
(perfbench/src) with the Scala compiler of the Spark distribution
(SPARK_HOME, or the one spark-submit on PATH belongs to) into
.bench_build/perfbench; later runs reuse it while no source changes.
Everything a run writes stays under .bench_build.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = Path(shutil.which("spark-submit")).resolve().parent.parent
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("spark-sql_*.jar")):
        sys.exit("perfbench: no Spark distribution found; set SPARK_HOME")
    return jars


def build(jars):
    """Compile program + benchmark sources unless the cached build matches."""
    program = ROOT / "src" / "main" / "scala" / "repro"
    if not program.is_dir():
        sys.exit(f"perfbench: {program} not found; run from the repository root")
    files = sorted(p for d in (program, BENCH / "src") for p in d.rglob("*.scala"))
    digest = hashlib.sha256(" ".join(sorted(os.listdir(jars))).encode())
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    build_dir = OUT / "perfbench"
    stamp, classes = build_dir / "stamp", build_dir / "classes"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return classes
    shutil.rmtree(build_dir, ignore_errors=True)
    tmp = build_dir / "classes.tmp"
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(p) for p in files]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: compilation failed")
    tmp.rename(classes)
    stamp.write_text(digest.hexdigest())
    return classes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["tao", "fleet", "stream"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--small", default="0", help="tiny inputs, for the self-test")
    ap.add_argument("--wrong-cleaner", default="0", help="fleet cleans with a no-op, for the self-test")
    args = ap.parse_args()

    jars = spark_jars()
    classes = build(jars)
    scratch = OUT / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseSerialGC", f"-Djava.io.tmpdir={scratch / 'tmp'}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{jars}/*", "repro.perfbench.Main",
           "--scratch", str(scratch)]
    for k in ("workload", "seed", "seconds", "trace", "small", "wrong_cleaner"):
        cmd += ["--" + k.replace("_", "-"), str(getattr(args, k))]
    proc = subprocess.Popen(cmd)
    signal.signal(signal.SIGTERM, lambda *_: proc.kill())
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
