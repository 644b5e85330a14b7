package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** Regression pin: every MTCSC kernel's output on a seeded 20k-point TAO
  * slice (10 % `Together` errors, the sweeps' constraint capture) must
  * reproduce, bit for bit, the digest recorded from the first, plain
  * implementation of the kernels. Faster kernels must not change a
  * single repaired value.
  */
class GoldenSpec extends AnyFunSuite {

  private lazy val truth = TimeSeriesGen.tao(20000, seed = 13)
  private lazy val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 5)
  private lazy val cfg = Harness.configFrom(truth, w = 5.0)

  /** SHA-256 over the raw bits of every timestamp and value. */
  private def digest(xs: Array[TimePoint]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    def put(d: Double): Unit = { buf.clear(); buf.putLong(java.lang.Double.doubleToRawLongBits(d)); md.update(buf.array()) }
    for (p <- xs) { put(p.t); p.v.foreach(put) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private val pinned: Seq[(String, () => Cleaner, String)] = Seq(
    ("MTCSC-G", () => MtcscG(cfg.sc), "2b4761775cbcd05b72d9219e6c5c445deba4919e8653ce6435bd877da2a2c393"),
    ("MTCSC-L", () => MtcscL(cfg.sc), "c24780f47af968fbcc1ba195b402d346cc2a8a88410606a7f139f2eb3e2f1294"),
    ("MTCSC-C", () => MtcscC(cfg.sc), "11e8d277fd653aae296660b43bee3526b460dda0d24fbb72574978ea631965d5"),
    ("MTCSC-A", () => MtcscA(cfg.sc), "31737506c9ebd2dd05eecc0a83281492c5892f13052e29328ebf41107b42806e"),
    ("MTCSC-Uni", () => MtcscUni(cfg.uniScs), "eb10ceb370447aab1784295a67837adcaf3127f8e8060e06ab3186451a710762"),
  )

  for ((name, cleaner, expected) <- pinned)
    test(s"$name output on a seeded 20k TAO slice matches its pinned digest") {
      assert(digest(cleaner().clean(dirty)) == expected)
    }

  // The pin covers MTCSC-A's re-capture path only if the slice triggers it.
  test("the pinned slice makes MTCSC-A re-capture its constraint") {
    val state = new MtcscA.AdaptiveState(b = 6, tau = 0.75, m = 150, beta = 0.75)
    var s = cfg.sc.s
    var recaptures = 0
    for (k <- 1 until dirty.length) {
      val next = state.update(dirty(k - 1), dirty(k), s)
      if (next != s) recaptures += 1
      s = next
    }
    assert(recaptures >= 20, s"only $recaptures re-captures")
  }
}
