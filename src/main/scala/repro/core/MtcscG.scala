package repro.core

/** MTCSC-G — global optimal repair (Algorithm 1).
  *
  * Finds the longest subsequence whose consecutive points are pairwise
  * compatible with the speed constraint (an extension of the longest
  * increasing subsequence problem); every point off that chain is in the
  * FixList and repaired by interpolating between its nearest preceding
  * and succeeding clean points (formula (6)).
  *
  * Compatibility here is the *pure* speed test `d <= s * dt` with no
  * window exemption, matching how the paper's algorithms use satisfy.
  * (If pairs beyond the window were treated as unconstrained — a literal
  * reading of formulation (3) — a keep-set could place a fix point
  * within `w` of two mutually-unconstrained anchors whose candidate
  * balls do not intersect, making the repair infeasible; the pure test
  * excludes that case and makes interpolation provably sound, see
  * DESIGN.md.) Exact early exit in the DP, worst case O(Dn²) as in the
  * paper (see [[MtcscG.fixList]]).
  */
final case class MtcscG(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-G"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    if (xs.length <= 1) return TimePoint.copyOf(xs)
    MtcscG.repair(xs, MtcscG.fixList(xs, sc))
  }
}

object MtcscG {

  /** The paper's Algorithm 1: the longest-compatible-chain DP. Returns
    * the sorted indices of points that must be fixed (FixList).
    *
    * `dp(i)` is one more than the best `dp(j)` over earlier compatible j,
    * and `pre(i)` the smallest such j, exactly as the full O(n²) scan over
    * all j < i gives them. The scan runs j downward from i - 1 instead and
    * stops once `prefMax(j) + 1 < best`: no j' <= j can then reach the
    * current best, and ties (taken with `>=`) still end on the smallest j.
    * A point joins the chain of a recent point after O(1) checks on
    * typical data. The worst case stays O(Dn²): a point incompatible with
    * every earlier point (an isolated huge spike under a tight `s`) still
    * scans back to index 0.
    */
  def fixList(xs: Array[TimePoint], sc: SpeedConstraint): Array[Int] = {
    val n = xs.length
    val dp = new Array[Int](n)
    val prefMax = new Array[Int](n) // max dp(0..j)
    val pre = new Array[Int](n)
    var maxLen = 0
    var endIdx = 0
    var i = 0
    while (i < n) {
      var best = 1
      var bestPre = -1
      var j = i - 1
      while (j >= 0 && prefMax(j) + 1 >= best) {
        if (dp(j) + 1 >= best && sc.speedOk(xs(i), xs(j))) {
          best = dp(j) + 1
          bestPre = j
        }
        j -= 1
      }
      dp(i) = best
      pre(i) = bestPre
      prefMax(i) = if (i == 0) best else math.max(prefMax(i - 1), best)
      if (best > maxLen) { maxLen = best; endIdx = i }
      i += 1
    }
    val clean = new Array[Boolean](n)
    var k = endIdx
    while (k >= 0) { clean(k) = true; k = pre(k) }
    (0 until n).filterNot(clean).toArray
  }

  /** Interpolation repair (formula (6)) of every FixList point between its
    * nearest clean neighbours; clean points are returned unchanged.
    */
  def repair(xs: Array[TimePoint], fixes: Array[Int]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    if (fixes.isEmpty) return out
    val isFix = Array.fill(xs.length)(false)
    fixes.foreach(isFix(_) = true)
    for (i <- fixes) {
      var p = i - 1
      while (p >= 0 && isFix(p)) p -= 1
      var m = i + 1
      while (m < xs.length && isFix(m)) m += 1
      (p >= 0, m < xs.length) match {
        case (true, true) =>
          val alpha = (xs(i).t - xs(p).t) / (xs(m).t - xs(p).t)
          var l = 0
          while (l < out(i).v.length) {
            out(i).v(l) = alpha * (xs(m).v(l) - xs(p).v(l)) + xs(p).v(l)
            l += 1
          }
        case (true, false) => Array.copy(xs(p).v, 0, out(i).v, 0, out(i).v.length)
        case (false, true) => Array.copy(xs(m).v, 0, out(i).v, 0, out(i).v.length)
        case _             => () // single-point series: nothing to anchor on
      }
    }
    out
  }
}
