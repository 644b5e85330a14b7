package repro.perfbench

import java.io.File

/** Command line of one benchmark run. `small` and `wrongCleaner` exist
  * for the benchmark's self-test only.
  */
final case class Args(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    scratch: File,
    small: Boolean,
    wrongCleaner: Boolean,
) {
  /** Spark's local threads: the host's processors, at most 4. */
  val cores: Int = math.min(Runtime.getRuntime.availableProcessors, 4)
  val sizes: Sizes = if (small) Sizes.small else Sizes.full
}

/** Input sizes of the three workloads. */
final case class Sizes(
    taoN: Int,          // TAO points (the paper's full 568k)
    taoPiece: Int,      // points per kernel call on tao
    gCap: Int,          // MTCSC-G input cap in points: its DP is O(n²)
    gPiece: Int,        // points per MTCSC-G call
    fleetSeries: Int,   // GPS(Walk) series in the fleet
    fleetWarmUp: Int,   // untimed fleet passes before the timed ones
    legGCap: Int,       // MTCSC-G cap on the fleet / stream kernel leg, which only needs its RMSE
    seriesLen: Int,     // points per fleet series
    streamSeries: Int,  // series fed through the stream
    streamLen: Int,     // points per stream series: room for the warm-up and every timed micro-batch
    chunk: Int,         // points per series per micro-batch
    streamWarmUp: Int,  // untimed micro-batches before the timed ones, until the JIT has settled
    setupReps: Int,     // set-up repetitions per run (setup_s is their median)
)

object Sizes {
  val full = Sizes(
    taoN = 568000, taoPiece = 35500, gCap = 20000, gPiece = 5000,
    fleetSeries = 512, fleetWarmUp = 2, legGCap = 10000, seriesLen = 2000,
    streamSeries = 64, streamLen = 8000, chunk = 50, streamWarmUp = 40, setupReps = 3)
  val small = Sizes(
    taoN = 20000, taoPiece = 5000, gCap = 2000, gPiece = 1000,
    fleetSeries = 16, fleetWarmUp = 1, legGCap = 1000, seriesLen = 400,
    streamSeries = 8, streamLen = 400, chunk = 50, streamWarmUp = 1, setupReps = 2)
}

/** Entry point: runs one workload and prints the result as the last line
  * of standard output. Exits non-zero without a result if the run itself
  * breaks (a failed *output* is reported in the result instead).
  */
object Main {
  val Methods: Seq[String] = Seq("mtcsc-g", "mtcsc-l", "mtcsc-c", "mtcsc-a", "mtcsc-uni")

  val EndToEnd: Seq[(String, String)] =
    Seq("setup_s" -> "s", "pts_per_s" -> "pt/s") ++
      Methods.map(m => s"rmse.$m" -> "data_units") :+
      ("stream_lat_p50_ms" -> "ms")

  val PerLayer: Seq[(String, String)] =
    Seq("data.gen_ms" -> "ms", "data.inject_ms" -> "ms", "setup.session_ms" -> "ms", "setup.warmup_ms" -> "ms") ++
      Methods.flatMap(m => Seq(
        s"core.$m.ns_per_pt" -> "ref_ns/pt", s"core.$m.alloc_bytes_per_pt" -> "B/pt", s"core.$m.gc_ms" -> "ms",
        s"core.$m.repairs" -> "count", s"core.$m.violations_after" -> "count")) ++
      Seq(
        "core.mtcsc-l.kernel_ms" -> "ms",
        "core.rows.to_points_ns_per_pt" -> "ns/pt", "core.rows.from_points_ns_per_pt" -> "ns/pt",
        "spark.to_ds_ms" -> "ms", "spark.job_ms" -> "ms", "spark.stages" -> "count", "spark.tasks" -> "count",
        "spark.executor_run_ms" -> "ms", "spark.executor_cpu_ms" -> "ms", "spark.executor_gc_ms" -> "ms",
        "spark.shuffle_write_bytes" -> "B", "spark.shuffle_read_bytes" -> "B", "spark.result_bytes" -> "B",
        "spark.busy_share" -> "share",
        "stream.trigger_ms" -> "ms", "stream.add_batch_ms" -> "ms", "stream.wal_commit_ms" -> "ms",
        "stream.commit_offsets_ms" -> "ms", "stream.state_rows" -> "count", "stream.state_bytes" -> "B",
        "stream.state_commit_ms" -> "ms", "stream.tasks_per_batch" -> "count", "stream.rows_in" -> "count",
        "stream.rows_out" -> "count", "stream.advance_ns_per_pt" -> "ns/pt",
        "trace.pts_per_s_untraced" -> "pt/s", "trace.pts_per_s_traced" -> "pt/s", "trace.overhead_share" -> "share",
      )

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val ctx = new Ctx(args)
    args.workload match {
      case "tao"    => Tao.run(ctx)
      case "fleet"  => Fleet.run(ctx)
      case "stream" => Stream.run(ctx)
      case w        => throw new IllegalArgumentException(s"unknown workload '$w' (tao, fleet, stream)")
    }
    println(result(ctx))
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.toSeq.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def req(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = req("workload"),
      seed = req("seed").toLong,
      seconds = req("seconds").toInt,
      trace = req("trace") == "1",
      scratch = new File(req("scratch")),
      small = kv.get("small").contains("1"),
      wrongCleaner = kv.get("wrong-cleaner").contains("1"),
    )
  }

  /** The result line: every declared metric of the run's kind, by name. */
  private def result(ctx: Ctx): String = {
    val (declared, values) = if (ctx.args.trace) (PerLayer, ctx.layer) else (EndToEnd, ctx.e2e)
    val metrics = declared.map { case (name, unit) =>
      val v = values.get(name).getOrElse(throw new IllegalStateException(s"metric $name was not measured"))
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
      s""""$name": {"value": $v, "unit": "$unit"}"""
    }
    val t = ctx.tally
    s"""{"correct": ${t.failed == 0 && t.attempted > 0}, "attempted": ${t.attempted}, "failed": ${t.failed}, """ +
      s""""metrics": {${metrics.mkString(", ")}}}"""
  }
}

/** Per-run state shared by the workloads. */
final class Ctx(val args: Args) {
  val e2e, layer = new Metrics
  val tally = new Tally

  def sizes: Sizes = args.sizes

  /** Set every declared per-layer metric under `prefix` to 0: the layer
    * does no work on this workload.
    */
  def idle(prefix: String): Unit =
    Main.PerLayer.foreach { case (name, _) => if (name.startsWith(prefix)) layer(name) = 0.0 }

  /** Run `pass` while another one is expected to end within `budgetNs`;
    * in traced runs every second pass is traced, and each kind runs at
    * least once.
    */
  def passes(budgetNs: Long, more: => Boolean = true)(pass: Boolean => Unit): Unit = {
    val start = System.nanoTime()
    val min = if (args.trace) 2 else 1
    var i = 0
    def elapsed = System.nanoTime() - start
    while (more && (i < min || elapsed + elapsed / i <= budgetNs)) { pass(args.trace && i % 2 == 1); i += 1 }
  }

  def budgetNs(share: Double): Long = (args.seconds * share * 1e9).toLong

  /** trace.* from traced and untraced throughput of the same kind of pass. */
  def traceOverhead(untraced: Double, traced: Double): Unit = {
    layer("trace.pts_per_s_untraced") = untraced
    layer("trace.pts_per_s_traced") = traced
    layer("trace.overhead_share") = 1.0 - traced / untraced
  }
}
