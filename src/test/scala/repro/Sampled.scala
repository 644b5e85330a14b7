package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

/** Raw ScalaCheck generators sampled with fixed seeds (the
  * scalatest/scalacheck bridge artifact is not available offline).
  */
object Sampled {

  /** Deterministically sample `gen` `trials` times and run the check. */
  def forAllSampled[A](gen: Gen[A], trials: Int = 60)(check: A => Unit): Unit = {
    var i = 0
    while (i < trials) {
      check(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))
      i += 1
    }
  }
}
