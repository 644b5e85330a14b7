package repro.spark

import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{MtcscL, SeriesRow, SpeedConstraint, TimePoint}

/** Structured Streaming execution of MTCSC-L (Algorithm 2): a stateful
  * per-series operator that emits each point's repair as soon as it is
  * decidable — when a compatible successor arrives, or a successor
  * falls beyond the window (then the previous repair is reused).
  *
  * State per series: the last repaired point plus the buffer of
  * arrived-but-undecided points (bounded by the window size). Points are
  * assumed to arrive in timestamp order (the paper's assumption,
  * Section 5.6 limitation 1). The emitted repairs are exactly the batch
  * MTCSC-L output replayed online — tested against [[repro.core.MtcscL]].
  */
object StreamingCleaner {

  /** Streaming operator state (encoded with a product encoder). */
  final case class LState(prev: Option[SeriesRow], pending: Seq[SeriesRow])

  /** Decide as many pending points as possible with the one Algorithm 2
    * loop ([[repro.core.MtcscL.run]]) on a copy of `prev ++ pending`, so
    * the batch path, the streaming path and tests share the exact
    * semantics and the given points are never changed.
    *
    * @return (emitted repairs, new prev, remaining pending)
    */
  def advance(
      sc: SpeedConstraint,
      prev0: Option[TimePoint],
      pending0: Vector[TimePoint],
      endOfStream: Boolean,
  ): (Vector[TimePoint], Option[TimePoint], Vector[TimePoint]) = {
    val xs = TimePoint.copyOf((prev0 ++ pending0).toArray)
    val decided = MtcscL.run(xs, sc, closed = endOfStream)
    val from = prev0.size
    val emitted = xs.slice(from, decided).toVector
    (emitted, emitted.lastOption.orElse(prev0), pending0.drop(emitted.length))
  }

  private def toPoint(r: SeriesRow): TimePoint = TimePoint(r.t, r.dims.toArray)

  /** Wire [[advance]] into flatMapGroupsWithState. */
  def clean(ds: Dataset[SeriesRow], sc: SpeedConstraint): Dataset[SeriesRow] = {
    implicit val rowEnc = Encoders.product[SeriesRow]
    implicit val stateEnc = Encoders.product[LState]
    import ds.sparkSession.implicits._
    ds.groupByKey(_.seriesId)
      .flatMapGroupsWithState(OutputMode.Append(), GroupStateTimeout.NoTimeout)(
        (id: Long, rows: Iterator[SeriesRow], state: GroupState[LState]) => {
          val st = state.getOption.getOrElse(LState(None, Seq.empty))
          val arrived = rows.toSeq.sortBy(_.t).map(toPoint)
          val (emitted, prev, pending) = advance(
            sc,
            st.prev.map(toPoint),
            st.pending.map(toPoint).toVector ++ arrived,
            endOfStream = false,
          )
          state.update(LState(
            prev.map(p => SeriesRow(id, p.t, p.v.toSeq)),
            pending.map(p => SeriesRow(id, p.t, p.v.toSeq)),
          ))
          emitted.iterator.map(p => SeriesRow(id, p.t, p.v.toSeq))
        }
      )
  }
}
