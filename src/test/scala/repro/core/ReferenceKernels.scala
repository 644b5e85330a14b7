package repro.core

import scala.collection.mutable

/** The kernels as the paper's pseudocode states them, with no early exit
  * or incremental bookkeeping: the oracles that the production kernels
  * must match exactly.
  */
object ReferenceKernels {

  /** Algorithm 1: the full O(n²) longest-compatible-chain DP over every
    * j < i; ties keep the smallest j. Returns the FixList.
    */
  def gFixList(xs: Array[TimePoint], sc: SpeedConstraint): Array[Int] = {
    val n = xs.length
    val dp = Array.fill(n)(1)
    val pre = Array.fill(n)(-1)
    var maxLen = 0
    var endIdx = 0
    var i = 0
    while (i < n) {
      var j = 0
      while (j < i) {
        if (sc.speedOk(xs(i), xs(j)) && dp(i) < dp(j) + 1) {
          dp(i) = dp(j) + 1
          pre(i) = j
        }
        j += 1
      }
      if (dp(i) > maxLen) { maxLen = dp(i); endIdx = i }
      i += 1
    }
    val clean = Array.fill(n)(false)
    var k = endIdx
    while (k >= 0) { clean(k) = true; k = pre(k) }
    (0 until n).filterNot(clean).toArray
  }

  private final val OMIT = -2
  private final val HEAD = -1

  /** Algorithm 3 collecting clusters in a map of head -> members, in
    * creation order.
    */
  def buildClusters(p: TimePoint, w: Array[TimePoint], sc: SpeedConstraint): Seq[Seq[Int]] = {
    val n = w.length
    if (n == 0) return Seq.empty
    val f = Array.fill(n)(OMIT)
    val map = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]]
    var head = -1
    var l = 0
    while (l < n && head < 0) {
      if (sc.speedOk(p, w(l))) { head = l; f(l) = HEAD; map(l) = mutable.ArrayBuffer(l) }
      else l += 1
    }
    if (head < 0) return Seq.empty
    var i = head + 1
    while (i < n) {
      var j = i - 1
      var done = false
      while (!done && j >= head) {
        if (sc.speedOk(w(i), w(j))) {
          if (f(j) == HEAD) { f(i) = j; map(j) += i }
          else if (f(j) >= 0) { f(i) = f(j); map(f(i)) += i }
          done = true
        } else if (j == head || f(j) >= 0) {
          if (sc.speedOk(p, w(i))) { f(i) = HEAD; map(i) = mutable.ArrayBuffer(i) }
          done = true
        } else {
          j -= 1
        }
      }
      i += 1
    }
    map.values.map(_.toSeq).toSeq
  }

  /** Algorithm 5's state over two explicit windows of raw speeds: each
    * full step buckets both windows afresh, compares them by KL, and
    * re-captures from a sorted copy of W2.
    */
  final class AdaptiveState(b: Int, tau: Double, m: Int, beta: Double) {
    private val w1 = mutable.ArrayDeque.empty[Double]
    private val w2 = mutable.ArrayDeque.empty[Double]

    def update(p: TimePoint, k: TimePoint, s: Double): Double = {
      val dt = k.t - p.t
      if (dt <= 0) return s
      val s1 = k.dist(p) / dt
      var out = s
      if (w1.size < m) w1.append(s1)
      else if (w2.size < m) w2.append(s1)
      else {
        if (MtcscA.kl(MtcscA.distribution(w1, b, s), MtcscA.distribution(w2, b, s)) > tau)
          out = SpeedConstraint.quantile(w2.toArray, 0.95) / beta
        val s2 = w2.removeHead()
        w1.append(s2); w1.removeHead()
        w2.append(s1)
      }
      out
    }
  }
}
