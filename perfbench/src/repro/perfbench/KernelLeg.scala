package repro.perfbench

import java.util.concurrent.ExecutorService
import scala.collection.mutable.ArrayBuffer
import scala.util.Try
import scala.util.control.NonFatal
import repro.core.{Cleaner, SpeedConstraint, TimePoint}
import repro.eval.Metrics.{repairCount, rmse}

/** One method of a kernel leg: its whole input, cleaned once for repair
  * quality, and the piece length of its timed calls.
  */
final case class Method(cleaner: Cleaner, input: Series, pieceLen: Int)

/** In-memory `Cleaner.clean` of each MTCSC method: the `core` layer
  * through its public API, with no Spark.
  *
  * The warm-up cleans each method's whole input once; that call sets its
  * RMSE, repair and violation counts. Timed calls then clean pieces of the
  * input, so that even the slow methods give tens of samples per run. A
  * pass cleans every piece once with every method, interleaving the
  * methods piece by piece so that changes in the host's speed touch all
  * methods alike.
  *
  * Each call is timed between two runs of [[Calibration]] and scaled to
  * the reference host speed; a method's `ns_per_pt` is the median over
  * its calls (perfbench/README.md shows why raw times do not hold still
  * on a shared host). Traced calls also read the thread's allocation
  * counter and the GC time around every `clean`.
  */
final class KernelLeg(methods: Seq[Method], sc: SpeedConstraint, tally: Tally) {

  private final class Acc(val m: Method) {
    val key: String = m.cleaner.name.toLowerCase
    val pieces: Seq[Series] = KernelLeg.pieces(m.input, m.pieceLen)
    val points: Long = m.input.n.toLong
    val untraced, traced = ArrayBuffer.empty[Double] // ns per point, one per call
    val allocPerPt, gcMs = ArrayBuffer.empty[Double]
    var sq, repairs, violations = 0.0
  }

  private val accs = methods.map(new Acc(_))
  private val passSteps = ArrayBuffer.empty[Double] // calibration step times of the current pass
  private val rounds = accs.map(_.pieces.length).max

  /** Clean `s` and gate the output; keep its time if `timed`, its repair
    * quality if `quality`. Safe to call from several threads at once.
    */
  private def call(a: Acc, s: Series, traced: Boolean, timed: Boolean, quality: Boolean): Unit = {
    val sum = Gate.checksum(s.dirty)
    val before = Calibration.stepNs()
    val (a0, g0) = if (traced) (Probe.allocatedBytes(), Probe.gcMs()) else (0L, 0L)
    val t0 = System.nanoTime()
    val out = try Some(a.m.cleaner.clean(s.dirty)) catch { case NonFatal(_) => None }
    val ns = System.nanoTime() - t0
    val (alloc, gc) = if (traced) (Probe.allocatedBytes() - a0, Probe.gcMs() - g0) else (0L, 0L)
    val stepNs = (before + Calibration.stepNs()) / 2
    val ok = out.exists(o => Try(Gate.contract(s.dirty, o, sum)).getOrElse(false))
    val q = out.filter(_ => ok && quality).map(o => (rmse(o, s.truth), repairCount(o, s.dirty), KernelLeg.violations(o, sc)))
    synchronized {
      tally.check(ok)
      passSteps += stepNs
      if (timed) (if (traced) a.traced else a.untraced) += ns.toDouble / s.n * Calibration.RefStepNs / stepNs
      if (traced) { a.allocPerPt += alloc.toDouble / s.n; a.gcMs += gc.toDouble }
      q.foreach { case (r, rep, viol) => a.sq += r * r * s.n; a.repairs += rep; a.violations += viol }
    }
  }

  /** Untimed: each method cleans its whole input once (repair quality),
    * then untimed passes run until the warm-up has taken `minNs`, so the
    * JIT has compiled the kernels before any call is timed.
    */
  def warmUp(minNs: Long = 3000L * 1000 * 1000): Unit = {
    val t0 = System.nanoTime()
    accs.foreach(a => call(a, a.m.input, traced = false, timed = false, quality = true))
    while (System.nanoTime() - t0 < minNs) run(traced = false, timed = false)
  }

  def pass(traced: Boolean): Unit = run(traced, timed = true)

  private def calls: Seq[(Acc, Series)] =
    for (i <- 0 until rounds; a <- accs if i < a.pieces.length) yield (a, a.pieces(i))

  private def run(traced: Boolean, timed: Boolean): Unit =
    calls.foreach { case (a, s) => call(a, s, traced, timed, quality = false) }

  /** One pass with its calls spread over `pool`; returns its wall time
    * scaled to the reference host speed by the median calibration step of
    * the pass.
    */
  def parallelPass(traced: Boolean, pool: ExecutorService): Double = {
    synchronized(passSteps.clear())
    val t0 = System.nanoTime()
    val tasks = calls.map { case (a, s) =>
      pool.submit(new Runnable { def run(): Unit = call(a, s, traced, timed = true, quality = false) })
    }
    tasks.foreach(_.get())
    (System.nanoTime() - t0) * Calibration.RefStepNs / synchronized(Stats.median(passSteps))
  }

  def points: Long = accs.map(_.points).sum

  def reportEndToEnd(out: Metrics): Unit =
    for (a <- accs) out(s"rmse.${a.key}") = math.sqrt(a.sq / a.points)

  def reportLayers(out: Metrics): Unit =
    for (a <- accs) {
      out(s"core.${a.key}.ns_per_pt") = Stats.median(a.untraced)
      out(s"core.${a.key}.alloc_bytes_per_pt") = Stats.median(a.allocPerPt)
      out(s"core.${a.key}.gc_ms") = Stats.median(a.gcMs)
      out(s"core.${a.key}.repairs") = a.repairs
      out(s"core.${a.key}.violations_after") = a.violations
    }
}

object KernelLeg {
  /** Consecutive pairs that fail the workload's speed constraint. */
  def violations(xs: Array[TimePoint], sc: SpeedConstraint): Int =
    (1 until xs.length).count(i => !sc.speedOk(xs(i - 1), xs(i)))

  /** `s` cut into consecutive pieces of at most `len` points. */
  def pieces(s: Series, len: Int): Seq[Series] =
    s.dirty.grouped(len).zip(s.truth.grouped(len)).map { case (d, t) => Series(s.id, d, t) }.toSeq
}
