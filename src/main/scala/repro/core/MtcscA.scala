package repro.core

/** MTCSC-A — MTCSC-C with an adaptively re-captured speed constraint
  * (Algorithm 5).
  *
  * Consecutive-pair speeds of the raw observations are pushed through two
  * adjacent sliding windows W1, W2 of `m` speeds each. Both are bucketed
  * into `b` equal intervals over [0, s] (the last bucket is the overflow
  * (s, inf)); when the KL divergence KL(W1 || W2) exceeds `tau` the data
  * characteristic changed and the constraint is re-captured as the 95th
  * percentile of W2 divided by `beta`.
  */
final case class MtcscA(
    initial: SpeedConstraint,
    b: Int = 6,
    tau: Double = 0.75,
    m: Int = 150,
    beta: Double = 0.75,
) extends Cleaner {
  override def name: String = "MTCSC-A"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    val state = new MtcscA.AdaptiveState(b, tau, m, beta)
    val ws = new MtcscC.Workspace
    var sc = initial
    var k = 1
    while (k < xs.length) {
      val s = state.update(xs(k - 1), xs(k), sc.s)
      if (s != sc.s) sc = SpeedConstraint(s, initial.w)
      MtcscC.step(out, xs, k, sc, ws)
      k += 1
    }
    out
  }
}

object MtcscA {

  /** Mutable Algorithm 5 state: two adjacent speed windows. Raw speeds
    * are stored (not bucket ids) so UpdateDistribution under a changed
    * constraint is a pure re-bucketing of the same values.
    *
    * The 2m speeds live in one ring, W1 (older) then W2, starting at
    * `head`. Once both windows are full, each step moves one speed from
    * W2 to W1 and the bucket counts of both windows by ±1, so a step costs
    * O(b). The counts hold for the `s` they were bucketed under only; they
    * are rebuilt (O(m)) when the caller's `s` differs, i.e. on the first
    * full step and after a re-capture, which also sorts a copy of W2
    * (O(m log m)).
    */
  final class AdaptiveState(b: Int, tau: Double, m: Int, beta: Double) {
    private val ring = new Array[Double](2 * m)
    private var filled = 0
    private var head = 0
    private val c1, c2 = new Array[Int](b)      // bucket counts of W1, W2
    private var countedUnder = Double.NaN        // the s of c1/c2; NaN = never counted
    private val p1, p2 = new Array[Double](b)   // distributions of W1, W2
    private val sortedW2 = new Array[Double](m)

    private def at(i: Int): Double = ring((head + i) % (2 * m))

    /** Feed the speed of (p -> k); returns the (possibly updated) s. */
    def update(p: TimePoint, k: TimePoint, s: Double): Double = {
      val dt = k.t - p.t
      if (dt <= 0) return s
      val s1 = k.dist(p) / dt
      if (filled < 2 * m) { ring(filled) = s1; filled += 1; return s }
      if (s != countedUnder) recount(s)
      var i = 0
      while (i < b) { p1(i) = c1(i) / m.toDouble; p2(i) = c2(i) / m.toDouble; i += 1 }
      val out = if (kl(p1, p2) > tau) recapture() / beta else s
      // Slide: W1's oldest speed leaves, W2's oldest joins W1, s1 joins W2.
      val moving = bucket(at(m), b, s)
      c1(bucket(at(0), b, s)) -= 1
      c1(moving) += 1
      c2(moving) -= 1
      c2(bucket(s1, b, s)) += 1
      ring(head) = s1
      head = (head + 1) % (2 * m)
      out
    }

    private def recount(s: Double): Unit = {
      java.util.Arrays.fill(c1, 0)
      java.util.Arrays.fill(c2, 0)
      var i = 0
      while (i < m) { c1(bucket(at(i), b, s)) += 1; c2(bucket(at(m + i), b, s)) += 1; i += 1 }
      countedUnder = s
    }

    /** 95th percentile of W2, as `SpeedConstraint.quantile` gives it. */
    private def recapture(): Double = {
      var i = 0
      while (i < m) { sortedW2(i) = at(m + i); i += 1 }
      SpeedConstraint.quantileInPlace(sortedW2, 0.95)
    }
  }

  /** Bucket of speed `v`: b-1 equal intervals over [0, s] plus overflow
    * (s, inf). (Example 4.1: s = 2.2, b = 6 yields interval width 0.44.)
    */
  def bucket(v: Double, b: Int, s: Double): Int = {
    val width = s / (b - 1)
    if (v > s) b - 1 else math.min(b - 2, math.max(0, math.ceil(v / width).toInt - 1))
  }

  /** Bucket counts of `speeds` (see [[bucket]]). */
  def bucketCounts(speeds: Iterable[Double], b: Int, s: Double): Array[Int] = {
    val counts = Array.fill(b)(0)
    for (v <- speeds) counts(bucket(v, b, s)) += 1
    counts
  }

  /** Normalized probability distribution over the buckets. */
  def distribution(speeds: Iterable[Double], b: Int, s: Double): Array[Double] = {
    val counts = bucketCounts(speeds, b, s)
    val total = counts.sum.toDouble
    if (total == 0) Array.fill(b)(0.0) else counts.map(_ / total)
  }

  /** KL divergence with natural log; 0-probability p terms contribute 0,
    * 0-probability q terms are clamped to avoid infinities.
    */
  def kl(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    var acc = 0.0
    var i = 0
    while (i < p.length) {
      if (p(i) > 0) acc += p(i) * math.log(p(i) / math.max(q(i), 1e-10))
      i += 1
    }
    acc
  }
}
