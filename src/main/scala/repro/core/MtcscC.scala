package repro.core

/** MTCSC-C — online cleaning via window clustering (Algorithms 3 + 4).
  *
  * For each key point k the succeeding points inside the window are
  * grouped into speed-compatibility clusters anchored on the previous
  * repaired point (BuildCluster). The first point of the largest cluster
  * is the trend representative; if the key point is incompatible with
  * either the previous repair or that representative it is repaired onto
  * the interpolation line (formula (6)). Unlike MTCSC-L this also fixes
  * *small errors* that satisfy the constraint but sit off the trend.
  */
final case class MtcscC(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-C"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    val ws = new MtcscC.Workspace
    var k = 1
    while (k < xs.length) {
      MtcscC.step(out, xs, k, sc, ws)
      k += 1
    }
    out
  }
}

object MtcscC {

  /** Cluster flags (Algorithm 3 uses 0 / -1 / >0; 0-based indices force a
    * distinct encoding): OMIT = dirty/default, HEAD = first point of a
    * cluster, values >= 0 = head index of the cluster joined.
    */
  private final val OMIT = -2
  private final val HEAD = -1

  /** Scratch arrays of one `clean` call, reused by every [[step]]: the
    * cluster flags and cluster sizes of the current window. They grow to
    * the widest window seen, so a step allocates nothing.
    */
  final class Workspace {
    private[MtcscC] var flags = new Array[Int](16)
    private[MtcscC] var sizes = new Array[Int](16)

    private[MtcscC] def ensure(n: Int): Unit =
      if (flags.length < n) {
        val cap = math.max(n, 2 * flags.length)
        flags = new Array[Int](cap)
        sizes = new Array[Int](cap)
      }
  }

  /** BuildCluster (Algorithm 3) over the window `xs(from until until)`,
    * anchored on `p`: fills `f(0 until until - from)` with the flags of
    * the window's points (relative indices) and returns the relative
    * index of the first cluster head, or -1 when no point of the window
    * is compatible with `p` (then no flag is meaningful).
    */
  private def flagPass(p: TimePoint, xs: Array[TimePoint], from: Int, until: Int,
                       sc: SpeedConstraint, f: Array[Int]): Int = {
    val n = until - from
    // Lines 3-6: first point compatible with p starts the first cluster.
    var head = 0
    while (head < n && !sc.speedOk(p, xs(from + head))) head += 1
    if (head == n) return -1
    f(head) = HEAD
    var i = head + 1
    while (i < n) {
      val xi = xs(from + i)
      f(i) = OMIT
      var j = i - 1
      var done = false
      while (!done && j >= head) {
        if (sc.speedOk(xi, xs(from + j))) {
          // Action 1 — join j's cluster; a hit on an omitted j leaves i
          // omitted too (similar properties to a dirty point).
          if (f(j) == HEAD) f(i) = j
          else if (f(j) >= 0) f(i) = f(j)
          done = true
        } else if (j == head || f(j) >= 0) {
          // Action 2 — try to open a new cluster, anchored on p.
          if (sc.speedOk(p, xi)) f(i) = HEAD
          done = true
        } else {
          j -= 1 // Action 3 — j is a cluster head or omitted: look further back
        }
      }
      i += 1
    }
    head
  }

  /** BuildCluster (Algorithm 3) over the succeeding points of a window.
    *
    * @param p  the last repaired point before the window (x'_{k-1})
    * @param w  the succeeding points x_{k+1}.. inside the window
    * @return   clusters in creation order; each cluster lists relative
    *           indices into `w`, first element = cluster head
    */
  def buildClusters(p: TimePoint, w: Array[TimePoint], sc: SpeedConstraint): Seq[Seq[Int]] = {
    val f = new Array[Int](w.length)
    val head = flagPass(p, w, 0, w.length, sc, f)
    if (head < 0) return Seq.empty
    val members = head until w.length
    members.filter(f(_) == HEAD).map(h => h +: members.filter(f(_) == h))
  }

  /** Trend representative of the window `xs(from until until)`: the
    * relative index of the first point of the largest cluster (the
    * earliest-created one among equal sizes), or -1 when there is no
    * cluster. Equals `buildClusters(p, window, sc).maxBy(_.size).head`.
    */
  private[core] def representative(p: TimePoint, xs: Array[TimePoint], from: Int, until: Int,
                                   sc: SpeedConstraint, ws: Workspace): Int = {
    val n = until - from
    ws.ensure(n)
    val f = ws.flags
    val size = ws.sizes
    val head = flagPass(p, xs, from, until, sc, f)
    if (head < 0) return -1
    // Heads precede their members, so a head's size is set before it grows.
    var i = head
    while (i < n) {
      if (f(i) == HEAD) size(i) = 1
      else if (f(i) >= 0) size(f(i)) += 1
      i += 1
    }
    var rep = head
    i = head + 1
    while (i < n) {
      if (f(i) == HEAD && size(i) > size(rep)) rep = i
      i += 1
    }
    rep
  }

  /** One Algorithm 4 iteration for key point k; repairs out(k) in place.
    * Factored out so MTCSC-A can reuse it with an evolving constraint.
    */
  def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, sc: SpeedConstraint,
           ws: Workspace): Unit = {
    val n = xs.length
    var end = k + 1
    while (end < n && xs(end).t <= xs(k).t + sc.w) end += 1
    val rel = representative(out(k - 1), xs, k + 1, end, sc, ws)
    if (rel >= 0) {
      val rep = k + 1 + rel
      if (!(sc.speedOk(out(k - 1), xs(k)) && sc.speedOk(xs(k), xs(rep)))) {
        val alpha = (xs(k).t - out(k - 1).t) / (xs(rep).t - out(k - 1).t)
        var l = 0
        while (l < out(k).v.length) {
          out(k).v(l) = alpha * (xs(rep).v(l) - out(k - 1).v(l)) + out(k - 1).v(l)
          l += 1
        }
      }
    } else if (!sc.speedOk(out(k - 1), xs(k))) {
      // Empty cluster set — the paper's Algorithm 4 leaves this case
      // unspecified (line 9's argmax needs a cluster). Copying the
      // previous repair creates an absorbing flatline once the series
      // outruns it; instead take the minimum-change feasible repair:
      // project the observation onto the previous repair's speed ball
      // (sound by construction, and it keeps tracking the data).
      val p = out(k - 1)
      val dt = xs(k).t - p.t
      val d = xs(k).dist(p)
      val scale = if (d > 0) sc.s * dt / d else 0.0
      var l = 0
      while (l < out(k).v.length) {
        out(k).v(l) = p.v(l) + scale * (xs(k).v(l) - p.v(l))
        l += 1
      }
    }
  }
}
