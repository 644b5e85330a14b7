package repro.core

/** A cleaning method: takes a dirty series (sorted by t), returns a
  * repaired copy of the same length with identical timestamps.
  *
  * Implementations must not mutate the input array or its value vectors.
  */
trait Cleaner extends Serializable {
  /** Display name used in result tables (matches the paper's labels). */
  def name: String

  /** Repair the series. */
  def clean(xs: Array[TimePoint]): Array[TimePoint]
}
