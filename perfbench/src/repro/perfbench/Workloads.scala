package repro.perfbench

import java.util.concurrent.Executors
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness
import repro.perfbench.Stats.{median, ms, subSeed, timed}
import repro.spark.{SparkCleaner, StreamingCleaner}

/** TAO with 10 % `Together` errors and the sweeps' constraint capture
  * (`Harness.configFrom(truth, w = 5)`): the input of every kernel leg.
  */
final case class TaoInput(series: Series, cfg: Harness.Config) {
  /** The five MTCSC methods, timed on `pieceLen`-point pieces. MTCSC-G
    * gets the first `gCap` points only, timed on `gPieceLen`-point pieces,
    * because its DP is O(n²).
    */
  def leg(ctx: Ctx, pieceLen: Int, gCap: Int, gPieceLen: Int): KernelLeg = {
    val s = series
    val forG = Series(s.id, s.dirty.take(gCap), s.truth.take(gCap))
    new KernelLeg(Seq(
      Method(MtcscG(cfg.sc), forG, gPieceLen),
      Method(MtcscL(cfg.sc), s, pieceLen),
      Method(MtcscC(cfg.sc), s, pieceLen),
      Method(MtcscA(cfg.sc), s, pieceLen),
      Method(MtcscUni(cfg.uniScs), s, pieceLen),
    ), cfg.sc, ctx.tally)
  }
}

object TaoInput {
  def make(n: Int, seed: Long, setup: SetupTimer): TaoInput = {
    val truth = setup.gen(TimeSeriesGen.tao(n, seed = subSeed(seed, 1, 0)))
    val dirty = setup.inject(ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, subSeed(seed, 2, 0)))
    TaoInput(Series(0, dirty, truth), Harness.configFrom(truth, w = 5.0))
  }
}

/** Times the set-up repetitions of a run: `setup_s` is the median of
  * their wall times less stolen CPU time ([[HostCpu]]), `data.*` the
  * medians of the generator and injector shares.
  */
final class SetupTimer(ctx: Ctx) {
  private val gens, injects, totals = ArrayBuffer.empty[Double]
  private var genNs, injectNs = 0L

  def gen[A](f: => A): A = { val (a, ns) = timed(f); genNs += ns; a }
  def inject[A](f: => A): A = { val (a, ns) = timed(f); injectNs += ns; a }

  /** Run `setUp` once per repetition and keep the last result. */
  def repeat[A](setUp: Int => A): A = {
    val results = (1 to ctx.sizes.setupReps).map { rep =>
      genNs = 0; injectNs = 0
      val (a, ns) = HostCpu.timed(setUp(rep))
      gens += ms(genNs); injects += ms(injectNs); totals += ns / 1e9
      a
    }
    ctx.e2e("setup_s") = median(totals)
    ctx.layer("data.gen_ms") = median(gens)
    ctx.layer("data.inject_ms") = median(injects)
    results.last
  }
}

/** A cleaner that repairs nothing: the self-test's proof that gates bite. */
object ReturnsDirty extends Cleaner {
  def name: String = "returns-dirty"
  def clean(xs: Array[TimePoint]): Array[TimePoint] = TimePoint.copyOf(xs)
}

/** In-process timings of single layers, in traced runs only: row
  * conversion, single-thread MTCSC-L and the streaming kernel
  * `StreamingCleaner.advance` over the workload's series in micro-batch
  * sized chunks. Median of three; every output is gated.
  */
object InProcess {
  def measure(ctx: Ctx, series: Seq[Series], sc: SpeedConstraint): Unit = {
    val pts = series.map(_.n.toDouble).sum
    val from, to, kernel, adv = ArrayBuffer.empty[Double]
    for (_ <- 1 to 3) {
      val (rows, fromNs) = timed(series.map(s => SeriesRow.fromPoints(s.id, s.dirty)))
      val (back, toNs) = timed(rows.map(SeriesRow.toPoints))
      series.indices.foreach(i => ctx.tally.check(Gate.same(back(i), series(i).dirty, 0.0)))
      val (batch, kernelNs) = timed(series.map(s => MtcscL(sc).clean(s.dirty)))
      val (streamed, advNs) = timed(series.map(s => advanceInChunks(s.dirty, sc, ctx.sizes.chunk)))
      series.indices.foreach(i => ctx.tally.check(Gate.same(streamed(i), batch(i))))
      from += fromNs / pts; to += toNs / pts; kernel += ms(kernelNs); adv += advNs / pts
    }
    ctx.layer("core.rows.from_points_ns_per_pt") = median(from)
    ctx.layer("core.rows.to_points_ns_per_pt") = median(to)
    ctx.layer("core.mtcsc-l.kernel_ms") = median(kernel)
    ctx.layer("stream.advance_ns_per_pt") = median(adv)
  }

  /** Feed `xs` to `advance` chunk by chunk, then flush at end of stream. */
  private def advanceInChunks(xs: Array[TimePoint], sc: SpeedConstraint, chunk: Int): Array[TimePoint] = {
    val out = Vector.newBuilder[TimePoint]
    var prev: Option[TimePoint] = None
    var pending = Vector.empty[TimePoint]
    for (c <- xs.grouped(chunk)) {
      val (e, p, rest) = StreamingCleaner.advance(sc, prev, pending ++ c, endOfStream = false)
      out ++= e; prev = p; pending = rest
    }
    out ++= StreamingCleaner.advance(sc, prev, pending, endOfStream = true)._1
    out.result().toArray
  }
}

/** `tao`: one long TAO series cleaned in memory by every method; no Spark.
  * A pass cleans every piece with every method on `cores` threads, as
  * many as the Spark workloads use; its time is taken at the reference
  * host speed (see [[Calibration]]). Passes take 0.55 of the run's
  * seconds.
  */
object Tao {
  def run(ctx: Ctx): Unit = {
    val setup = new SetupTimer(ctx)
    val in = setup.repeat(_ => TaoInput.make(ctx.sizes.taoN, ctx.args.seed, setup))
    ctx.layer("setup.session_ms") = 0.0

    val leg = in.leg(ctx, ctx.sizes.taoPiece, ctx.sizes.gCap, ctx.sizes.gPiece)
    val pool = Executors.newFixedThreadPool(ctx.args.cores)
    val untraced, traced = ArrayBuffer.empty[Double]
    try {
      ctx.layer("setup.warmup_ms") = ms(timed { leg.warmUp(); leg.parallelPass(traced = false, pool) }._2)
      ctx.passes(ctx.budgetNs(0.55)) { t => (if (t) traced else untraced) += leg.parallelPass(t, pool) }
    } finally pool.shutdown()

    leg.reportEndToEnd(ctx.e2e)
    ctx.e2e("stream_lat_p50_ms") = ms(median(untraced))
    ctx.e2e("pts_per_s") = leg.points / median(untraced) * 1e9
    if (ctx.args.trace) {
      ctx.idle("spark.")
      ctx.idle("stream.")
      leg.reportLayers(ctx.layer)
      InProcess.measure(ctx, Seq(in.series), in.cfg.sc)
      ctx.traceOverhead(leg.points / median(untraced) * 1e9, leg.points / median(traced) * 1e9)
    }
  }
}

/** Shared by the two Spark workloads: GPS(Walk) series under the Table 4
  * constraint, the pinned session, and the kernel leg on a full-size TAO
  * series of the workload's own seed, which gives these workloads their
  * `rmse.*` figures. The kernel leg runs first, before the session exists,
  * so that Spark's threads and heap stay out of its timings.
  */
final class SparkWorkload(ctx: Ctx, salt: Long, nSeries: Int, seriesLen: Int) {
  /** Share of the run's seconds given to the kernel leg's timed calls in
    * traced runs; their times here feed only per-layer metrics.
    */
  val KernelShare = 0.15
  val a: Args = ctx.args
  val setup = new SetupTimer(ctx)

  /** Table 4: walking <= 1.6 m/s within w = 30 s. */
  val sc: SpeedConstraint = SpeedConstraint(1.6, 30.0)

  /** GPS(Walk) with its embedded consecutive errors, one seed per series. */
  def generate(): Seq[Series] = setup.gen((0 until nSeries).map { i =>
    val dt = TimeSeriesGen.gpsWalk(seriesLen, seed = subSeed(a.seed, salt, i))
    Series(i.toLong, dt.dirty, dt.truth)
  })

  /** The kernel leg, then `body` with the pinned session. */
  def withSpark(body: SparkSession => Unit): Unit = {
    kernelLeg()
    System.gc()
    val (spark, sessionNs) = timed(SparkSetup.session(a.cores, a.scratch))
    ctx.layer("setup.session_ms") = ms(sessionNs)
    try body(spark) finally spark.stop()
  }

  /** Untraced runs only clean each method's whole TAO input once, for
    * `rmse.*`; traced runs also time the kernel calls. Nothing of it is
    * kept, so the TAO input is garbage before Spark starts.
    */
  private def kernelLeg(): Unit = {
    val tao = TaoInput.make(ctx.sizes.taoN, subSeed(a.seed, salt, -1), new SetupTimer(ctx))
    val leg = tao.leg(ctx, ctx.sizes.taoPiece, ctx.sizes.legGCap, ctx.sizes.gPiece)
    if (a.trace) {
      leg.warmUp(minNs = 1500L * 1000 * 1000)
      ctx.passes(ctx.budgetNs(KernelShare))(leg.pass)
      leg.reportLayers(ctx.layer)
    } else leg.warmUp(minNs = 0)
    leg.reportEndToEnd(ctx.e2e)
  }
}

/** `fleet`: many series through the Spark batch path with MTCSC-L. */
object Fleet {
  /** Share of the run's seconds given to timed passes, two of ~5 s: a
    * run also spends ~15 s on untimed warm-up passes.
    */
  private val TimedShare = 0.6

  def run(ctx: Ctx): Unit = {
    val w = new SparkWorkload(ctx, salt = 3, nSeries = ctx.sizes.fleetSeries, seriesLen = ctx.sizes.seriesLen)
    import w.{a, sc}
    w.withSpark { spark =>
      val series = w.setup.repeat(_ => w.generate())
      val expected = series.map(s => MtcscL(sc).clean(s.dirty))
      val cleaner = if (a.wrongCleaner) ReturnsDirty else MtcscL(sc)
      val input = series.map(s => s.id -> s.dirty)
      val points = series.map(_.n.toDouble).sum
      val toDs, job, untraced, traced = ArrayBuffer.empty[Double]

      // toDS -> clean -> collectSeries; each series checked against in-memory MTCSC-L.
      def pass(): Long = {
        val (ds, dsNs) = HostCpu.timed(SparkCleaner.toDS(spark, input))
        val (out, jobNs) = HostCpu.timed(SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner)))
        series.foreach(s => ctx.tally.check(out.get(s.id).exists(Gate.same(_, expected(s.id.toInt)))))
        toDs += ms(dsNs); job += ms(jobNs)
        dsNs + jobNs
      }

      // Untimed passes first: the second one still takes ~15 % longer than
      // the third while the JIT compiles Spark.
      ctx.layer("setup.warmup_ms") = ms(timed((1 to ctx.sizes.fleetWarmUp).foreach(_ => pass()))._2)
      toDs.clear(); job.clear()
      val trace = new SparkTrace(spark)
      // Each pass starts on a collected heap, so that a full collection of
      // an earlier pass's garbage does not land in whichever pass comes next.
      ctx.passes(ctx.budgetNs(TimedShare)) { t =>
        System.gc()
        if (t) traced += trace.around { val ns = pass(); ((), ns) }._2.toDouble else untraced += pass().toDouble
      }

      ctx.e2e("pts_per_s") = points / median(untraced) * 1e9
      ctx.e2e("stream_lat_p50_ms") = ms(median(untraced))
      if (a.trace) {
        ctx.idle("stream.")
        ctx.layer("spark.to_ds_ms") = median(toDs)
        ctx.layer("spark.job_ms") = median(job)
        trace.report(ctx.layer, a.cores)
        InProcess.measure(ctx, series, sc)
        ctx.traceOverhead(points / median(untraced) * 1e9, points / median(traced) * 1e9)
      }
    }
  }
}

/** `stream`: the series fed through `StreamingCleaner` (MTCSC-L) as
  * micro-batches from a closed loop: one feeder sends the next batch only
  * after `processAllAvailable()` returns.
  *
  * `StreamingCleaner` never flushes a series (it runs with `NoTimeout`
  * and `endOfStream = false`), so after the timed batches every series
  * gets one far-future sentinel row that closes its window. Sentinels are
  * left out of every count, metric and check.
  */
object Stream {
  private val SentinelGap = 1e6

  /** Share of the run's seconds given to timed micro-batches: a run also
    * spends ~25 s on untimed warm-up batches.
    */
  private val TimedShare = 0.4

  def run(ctx: Ctx): Unit = {
    val w = new SparkWorkload(ctx, salt = 4, nSeries = ctx.sizes.streamSeries, seriesLen = ctx.sizes.streamLen)
    import w.{a, sc}
    val chunk = ctx.sizes.chunk
    w.withSpark { spark =>
      implicit val enc: Encoder[SeriesRow] = Encoders.product[SeriesRow]

      /** Series, their micro-batches, and a query on a fresh source that
        * has run the first batch.
        */
      final case class Feed(series: Seq[Series], batches: IndexedSeq[Seq[SeriesRow]],
                            input: MemoryStream[SeriesRow], query: StreamingQuery, table: String)

      def start(rep: Int): Feed = {
        val series = w.generate()
        val batches = (0 until ctx.sizes.streamLen / chunk).map { b =>
          series.flatMap(s => SeriesRow.fromPoints(s.id, s.dirty.slice(b * chunk, (b + 1) * chunk)))
        }
        val table = s"perfbench_stream_$rep"
        val input = MemoryStream[SeriesRow](enc, spark.sqlContext)
        val query = StreamingCleaner.clean(input.toDS(), sc).writeStream
          .format("memory").queryName(table).outputMode("append")
          .option("checkpointLocation", new java.io.File(a.scratch, s"checkpoint-$rep").getPath)
          .start()
        input.addData(batches.head); query.processAllAvailable()
        Feed(series, batches, input, query, table)
      }

      var last: Option[StreamingQuery] = None
      val Feed(series, batches, input, query, table) = w.setup.repeat { rep =>
        last.foreach(_.stop())
        val f = start(rep); last = Some(f.query); f
      }
      var next = 1
      // A micro-batch's time less stolen CPU time, at the reference host
      // speed: both vary from run to run by more than the program does.
      def batch(): Long = {
        val rows = batches(next); next += 1
        val before = Calibration.stepNs()
        val ns = HostCpu.timed { input.addData(rows); query.processAllAvailable() }._2
        (ns * Calibration.RefStepNs / ((before + Calibration.stepNs()) / 2)).toLong
      }
      // Untimed batches after the set-up's first: micro-batch time falls by
      // more than half over the first ~40 batches while the JIT compiles Spark.
      ctx.layer("setup.warmup_ms") = ms(timed((1 to ctx.sizes.streamWarmUp).foreach(_ => batch()))._2)
      System.gc()

      val firstTimed = next
      val untraced, traced = ArrayBuffer.empty[Double]
      val trace = new SparkTrace(spark)
      ctx.passes(ctx.budgetNs(TimedShare), more = next < batches.length) { t =>
        if (t) traced += trace.around(((), batch()))._2.toDouble else untraced += batch().toDouble
      }
      val timedBatches = firstTimed until next
      val streamed = next * chunk

      // Flush with sentinels; then every series must equal batch MTCSC-L on what was streamed.
      input.addData(series.map { s =>
        val lastPt = s.dirty(streamed - 1)
        SeriesRow(s.id, lastPt.t + SentinelGap, lastPt.v.toSeq)
      })
      query.processAllAvailable()
      val progress = query.recentProgress.filter(p => timedBatches.contains(p.batchId.toInt))
      query.stop()
      val got = spark.table(table).as[SeriesRow].collect().groupBy(_.seriesId)
      for (s <- series) ctx.tally.check {
        val lastT = s.dirty(streamed - 1).t
        val out = got.getOrElse(s.id, Array.empty[SeriesRow]).filter(_.t <= lastT).toSeq
        Gate.same(SeriesRow.toPoints(out), MtcscL(sc).clean(s.dirty.take(streamed)))
      }

      val rowsPerBatch = series.size * chunk
      ctx.e2e("pts_per_s") = rowsPerBatch * untraced.size / untraced.sum * 1e9
      ctx.e2e("stream_lat_p50_ms") = ms(median(untraced))
      if (a.trace) {
        def med(f: StreamingQueryProgress => Double) = median(progress.map(f))
        def dur(k: String) = med(p => Option(p.durationMs.get(k)).fold(0.0)(_.doubleValue))
        ctx.layer("stream.trigger_ms") = dur("triggerExecution")
        ctx.layer("stream.add_batch_ms") = dur("addBatch")
        ctx.layer("stream.wal_commit_ms") = dur("walCommit")
        ctx.layer("stream.commit_offsets_ms") = dur("commitOffsets")
        ctx.layer("stream.state_rows") = med(_.stateOperators.map(_.numRowsTotal).sum.toDouble)
        ctx.layer("stream.state_bytes") = med(_.stateOperators.map(_.memoryUsedBytes).sum.toDouble)
        ctx.layer("stream.state_commit_ms") = med(_.stateOperators.map(_.commitTimeMs).sum.toDouble)
        ctx.layer("stream.rows_in") = med(_.numInputRows.toDouble)
        ctx.layer("stream.rows_out") = med(p => math.max(0L, p.sink.numOutputRows).toDouble)
        ctx.layer("stream.tasks_per_batch") = trace.tasksTotal.toDouble / math.max(1, trace.passes)
        trace.report(ctx.layer, a.cores)
        ctx.layer("spark.to_ds_ms") = 0.0
        ctx.layer("spark.job_ms") = 0.0
        InProcess.measure(ctx, series, sc)
        ctx.traceOverhead(rowsPerBatch / median(untraced) * 1e9, rowsPerBatch / median(traced) * 1e9)
      }
    }
  }
}
