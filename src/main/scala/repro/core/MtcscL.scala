package repro.core

/** MTCSC-L — online local streaming repair (Algorithm 2).
  *
  * For each arriving point k: keep it if it is compatible with the
  * previous repaired point; otherwise scan forward inside the window for
  * the first successor compatible with the previous repair and place the
  * repair on the line between them (formula (6)). If the window is
  * exhausted the previous repaired value is reused. Soundness w.r.t. the
  * speed constraint is guaranteed (Proposition 3.2).
  */
final case class MtcscL(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-L"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    MtcscL.run(out, sc, closed = true)
    out
  }
}

object MtcscL {

  /** The one Algorithm 2 loop, shared by [[MtcscL.clean]] and the
    * streaming operator ([[repro.spark.StreamingCleaner.advance]]).
    *
    * Repairs `xs(k)` in place for k = 1, 2, …; `xs(0)` is taken as
    * already repaired. Only `xs(k)` changes at step k, so the successors
    * it scans still hold their observed values. Returns the index of the
    * first point it cannot yet decide (`xs.length` when all are decided):
    * one that violates `s` against its predecessor, has no compatible
    * successor within `w` and no successor beyond `w`, while `closed` is
    * false (more points may still arrive). With `closed` true a series
    * that ends inside the window reuses the previous repair.
    */
  private[repro] def run(xs: Array[TimePoint], sc: SpeedConstraint, closed: Boolean): Int = {
    val n = xs.length
    var k = 1
    while (k < n) {
      val p = xs(k - 1)
      if (!sc.speedOk(xs(k), p)) {
        var i = k + 1
        var done = false
        while (i < n && !done) {
          if (xs(i).t > xs(k).t + sc.w) {
            Array.copy(p.v, 0, xs(k).v, 0, p.v.length)
            done = true
          } else if (sc.speedOk(xs(i), p)) {
            interpolate(xs(k), p, xs(i))
            done = true
          } else i += 1
        }
        // Ran off the end without a compatible successor: a closed series
        // falls back to the previous repair (as on window exhaustion), an
        // open one waits for more points.
        if (!done) {
          if (!closed) return k
          Array.copy(p.v, 0, xs(k).v, 0, p.v.length)
        }
      }
      k += 1
    }
    n
  }

  /** x'_k = alpha * (x_m - x'_p) + x'_p with alpha = (tk-tp)/(tm-tp). */
  private def interpolate(target: TimePoint, p: TimePoint, m: TimePoint): Unit = {
    val alpha = (target.t - p.t) / (m.t - p.t)
    var l = 0
    while (l < target.v.length) {
      target.v(l) = alpha * (m.v(l) - p.v(l)) + p.v(l)
      l += 1
    }
  }
}
