package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core.TimePoint

/** One logical series of a workload: dirty input and its ground truth. */
final case class Series(id: Long, dirty: Array[TimePoint], truth: Array[TimePoint]) {
  def n: Int = dirty.length
}

object Stats {
  def median(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.toArray.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def ms(ns: Double): Double = ns / 1e6

  /** Wall-clock a thunk in ns. */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Independent per-series seed derived from the workload seed. */
  def subSeed(seed: Long, salt: Long, i: Long): Long =
    (seed * 0x9E3779B97F4A7C15L) ^ (salt * 0xC2B2AE3D27D4EB4FL) ^ (i * 0x165667B19E3779F9L)
}

/** The host's current speed, from a fixed loop in the benchmark's own code
  * (no program code): 3-D distances between nearby points of a fixed
  * array of small arrays, the access pattern of the kernels' inner loops.
  *
  * On a shared host the same code runs up to ~1.7x slower for seconds at
  * a time. Kernel calls are timed between two calibrations and reported
  * at the reference speed `RefStepNs`, which cancels that drift.
  */
object Calibration {
  /** Nanoseconds one step takes at the reference speed (about the fast
    * state of a 4-core 2.1 GHz Xeon VM).
    */
  val RefStepNs = 2.0

  private val pts = Array.tabulate(4000)(i => Array(math.sin(i), math.cos(i), i * 1e-3))
  private val Window = 100
  private val steps = pts.indices.map(i => math.min(i, Window)).sum.toDouble
  @volatile private var sink = 0.0

  /** Time one pass of the loop; returns ns per step. */
  def stepNs(): Double = {
    val t0 = System.nanoTime()
    var acc = 0.0
    var i = 0
    while (i < pts.length) {
      val a = pts(i)
      var j = math.max(0, i - Window)
      while (j < i) {
        val b = pts(j)
        val d0 = a(0) - b(0); val d1 = a(1) - b(1); val d2 = a(2) - b(2)
        acc += math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        j += 1
      }
      i += 1
    }
    sink += acc
    (System.nanoTime() - t0) / steps
  }
}

/** The VM's CPU time from the first line of `/proc/stat`, in clock ticks
  * summed over all CPUs: busy (user, nice, system, irq, softirq) and
  * stolen, that is wanted by the VM but spent by the hypervisor on other
  * guests.
  *
  * On a shared host the hypervisor steals 0-40 % of the CPU time in
  * phases of tens of seconds, and a Spark pass on every core slows down by
  * that share and more. [[timed]] scales a wall time to a host that
  * steals nothing: a serial stretch with stolen time `s` loses exactly
  * `s`, a stretch on all cores loses the mean of their stolen times.
  * Without `/proc/stat` nothing is scaled.
  */
object HostCpu {
  final case class Sample(busy: Long, stolen: Long)

  private val Stat = new java.io.File("/proc/stat")

  def sample(): Sample =
    if (!Stat.canRead) Sample(0, 0)
    else {
      val src = scala.io.Source.fromFile(Stat)
      val f = try src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong) finally src.close()
      def at(i: Int) = if (i < f.length) f(i) else 0L
      Sample(at(0) + at(1) + at(2) + at(5) + at(6), at(7))
    }

  /** Wall-clock a thunk in ns, less the share of the CPU time wanted
    * meanwhile that the hypervisor stole.
    */
  def timed[A](f: => A): (A, Long) = {
    val before = sample()
    val (a, ns) = Stats.timed(f)
    val after = sample()
    val busy = after.busy - before.busy
    val stolen = after.stolen - before.stolen
    (a, if (busy > 0 && stolen > 0) (ns * busy.toDouble / (busy + stolen)).toLong else ns)
  }
}

/** Output correctness checks; each call is one gated unit of work. */
object Gate {
  /** Order-sensitive hash of every bit of a series, to detect mutation. */
  def checksum(xs: Array[TimePoint]): Long = {
    var h = 1125899906842597L
    var i = 0
    while (i < xs.length) {
      val p = xs(i)
      h = 31 * h + java.lang.Double.doubleToLongBits(p.t)
      var l = 0
      while (l < p.v.length) { h = 31 * h + java.lang.Double.doubleToLongBits(p.v(l)); l += 1 }
      i += 1
    }
    h
  }

  /** The `Cleaner` contract: same length and timestamps, finite values,
    * and the input left exactly as it was (checksum taken before `clean`).
    */
  def contract(in: Array[TimePoint], out: Array[TimePoint], sumBefore: Long): Boolean =
    out.length == in.length &&
      in.indices.forall { i =>
        out(i).t == in(i).t && out(i).v.length == in(i).v.length && out(i).v.forall(x => !x.isNaN && !x.isInfinite)
      } &&
      checksum(in) == sumBefore

  /** Same timestamps and values within `eps`. */
  def same(a: Array[TimePoint], b: Array[TimePoint], eps: Double = 1e-9): Boolean =
    a.length == b.length && a.indices.forall(i => a(i).t == b(i).t && a(i).sameValues(b(i), eps))
}

/** Counts every gated unit; a unit that throws is a failure too. */
final class Tally {
  var attempted = 0L
  var failed = 0L

  def check(ok: => Boolean): Boolean = {
    attempted += 1
    val r = try ok catch { case NonFatal(_) => false }
    if (!r) failed += 1
    r
  }

  def fail(): Unit = { attempted += 1; failed += 1 }
}

/** JVM-side probes read only in traced passes. */
object Probe {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
  def gcMs(): Long = gcs.map(_.getCollectionTime).sum
}

/** Totals of every finished task and stage, from a listener the benchmark
  * registers only around traced passes.
  */
final class TaskTotals extends SparkListener {
  val stages, tasks, runMs, cpuNs, gcMs, shuffleWrite, shuffleRead, resultBytes = new AtomicLong

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      cpuNs.addAndGet(m.executorCpuTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      resultBytes.addAndGet(m.resultSize)
    }
  }

  def snapshot(): Array[Long] =
    Array(stages, tasks, runMs, cpuNs, gcMs, shuffleWrite, shuffleRead, resultBytes).map(_.get)
}

/** Listener deltas of traced passes, one row per pass. */
final class SparkTrace(spark: SparkSession) {
  private val totals = new TaskTotals
  private val rows = mutable.ArrayBuffer.empty[(Array[Long], Long)]

  /** Run `pass` with the listener attached; `passNs` is its wall time. */
  def around[A](pass: => (A, Long)): (A, Long) = {
    val sc = spark.sparkContext
    sc.addSparkListener(totals)
    val before = totals.snapshot()
    val (a, ns) = pass
    ListenerBusAccess.drain(sc)
    sc.removeSparkListener(totals)
    rows += ((totals.snapshot().zip(before).map { case (x, y) => x - y }, ns))
    (a, ns)
  }

  def passes: Int = rows.length
  def tasksTotal: Long = rows.map(_._1(1)).sum

  /** Per-pass medians under the `spark.*` metric names. */
  def report(out: Metrics, cores: Int): Unit = {
    def med(k: Int, scale: Double = 1.0) = if (rows.isEmpty) 0.0 else Stats.median(rows.map(_._1(k) * scale))
    out("spark.stages") = med(0)
    out("spark.tasks") = med(1)
    out("spark.executor_run_ms") = med(2)
    out("spark.executor_cpu_ms") = med(3, 1e-6)
    out("spark.executor_gc_ms") = med(4)
    out("spark.shuffle_write_bytes") = med(5)
    out("spark.shuffle_read_bytes") = med(6)
    out("spark.result_bytes") = med(7)
    out("spark.busy_share") =
      if (rows.isEmpty) 0.0 else Stats.median(rows.map { case (d, ns) => d(2) / (Stats.ms(ns) * cores) })
  }
}

/** Metric values by name; units live with the declared metric lists. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, Double]
  def update(name: String, v: Double): Unit = values(name) = v
  def get(name: String): Option[Double] = values.get(name)
}

object SparkSetup {
  /** The benchmark's pinned session: `local[cores]`, UI off, the tests' 64
    * shuffle partitions, broadcast joins off as in the tests, and every
    * scratch file under `scratch`. Nothing is taken from SPARK_MASTER or
    * SPARK_SHUFFLE_PARTITIONS, so a drifting environment cannot pass for
    * a gain.
    *
    * Checkpoint files go through Hadoop's `FileSystem` API on
    * [[InProcessLocalFileSystem]]: the default `FileContext` manager forks
    * a `readlink` for every rename and Hadoop's local file system a
    * `chmod` for every file it creates, which made process start-up, not
    * Spark, the bulk of a streaming micro-batch.
    */
  def session(cores: Int, scratch: java.io.File): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new java.io.File(scratch, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(scratch, "warehouse").getPath)
      .config("spark.sql.streaming.numRecentProgressUpdates", "1000")
      .config("spark.sql.streaming.checkpointFileManagerClass",
        "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager")
      .config("spark.hadoop.fs.file.impl", classOf[InProcessLocalFileSystem].getName)
      .getOrCreate()
}
