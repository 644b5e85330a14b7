package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** SCREEN [33] — univariate online cleaning under speed constraints,
  * minimum *change* principle (border repair).
  *
  * For the current point the feasible interval is the intersection of the
  * band reachable from the previous repair with the median of the bounds
  * induced by the succeeding points in the window (medians make the
  * bounds robust to dirty successors); the repair clamps the observation
  * into that interval: x'_k = median(X_min, X_max, x_k). Applied per
  * dimension with s_min = -s, s_max = +s (the univariate projection of
  * the Euclidean constraint).
  */
final case class Screen(scs: Array[SpeedConstraint]) extends Cleaner {
  override def name: String = "SCREEN"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] =
    PerDim(xs) { (ts, vs, l) => Screen.clean1(ts, vs, scs(l).s, scs(l).w) }
}

object Screen {
  def capture(xs: Array[TimePoint], w: Double): Screen =
    Screen(SpeedConstraint.capturePerDim(xs, w))

  /** One-dimensional SCREEN pass. */
  def clean1(ts: Array[Double], vs: Array[Double], s: Double, w: Double): Array[Double] = {
    val n = ts.length
    val out = vs.clone()
    var k = 1
    while (k < n) {
      val dt = ts(k) - ts(k - 1)
      val lbPrev = out(k - 1) - s * dt
      val ubPrev = out(k - 1) + s * dt
      // Bounds induced by in-window successors, median-aggregated.
      val lbs = Array.newBuilder[Double]
      val ubs = Array.newBuilder[Double]
      var i = k + 1
      while (i < n && ts(i) <= ts(k) + w) {
        val gap = ts(i) - ts(k)
        lbs += vs(i) - s * gap
        ubs += vs(i) + s * gap
        i += 1
      }
      val (lo, hi) = {
        val la = lbs.result(); val ua = ubs.result()
        if (la.isEmpty) (lbPrev, ubPrev)
        else {
          val l0 = math.max(lbPrev, PerDim.median(la))
          val u0 = math.min(ubPrev, PerDim.median(ua))
          if (l0 <= u0) (l0, u0) else (lbPrev, ubPrev)
        }
      }
      out(k) = math.min(hi, math.max(lo, vs(k))) // median(lo, hi, x_k)
      k += 1
    }
    out
  }
}
