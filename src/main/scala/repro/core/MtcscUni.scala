package repro.core

/** MTCSC-Uni — MTCSC-C applied to every dimension independently
  * (Section 5.3): the paper's recommended variant when errors occur in
  * dimensions separately. Each dimension carries its own constraint.
  */
final case class MtcscUni(scs: Array[SpeedConstraint]) extends Cleaner {
  override def name: String = "MTCSC-Uni"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    if (xs.isEmpty) return Array.empty
    val d = xs(0).dim
    require(scs.length == d, s"need one constraint per dimension ($d), got ${scs.length}")
    val out = TimePoint.copyOf(xs)
    var l = 0
    while (l < d) {
      val uni = xs.map(p => TimePoint.uni(p.t, p.v(l)))
      val cleaned = MtcscC(scs(l)).clean(uni)
      var i = 0
      while (i < xs.length) { out(i).v(l) = cleaned(i).v(0); i += 1 }
      l += 1
    }
    out
  }
}

object MtcscUni {
  /** Capture one constraint per dimension from the data
    * ([[SpeedConstraint.capturePerDim]]), as the univariate competitors do.
    */
  def capture(xs: Array[TimePoint], w: Double, percentile: Double = 0.95): MtcscUni =
    MtcscUni(SpeedConstraint.capturePerDim(xs, w, percentile))
}
