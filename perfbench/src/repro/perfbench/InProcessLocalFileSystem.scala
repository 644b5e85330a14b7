package repro.perfbench

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermission

import org.apache.hadoop.fs.{LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission

/** Hadoop's checksummed local file system, except that it sets file
  * permissions in-process.
  *
  * Without Hadoop's native library, `RawLocalFileSystem` forks a `chmod`
  * for every file and directory it creates. The streaming state store
  * creates several files per partition per micro-batch, so on `stream`
  * those forks of the multi-gigabyte benchmark JVM took most of a
  * micro-batch and most of its run-to-run spread. Setting the mode
  * through `java.nio` does what the native library would do, and leaves
  * Spark's own per-batch work to be measured.
  */
final class InProcessLocalFileSystem extends LocalFileSystem(new InProcessLocalFileSystem.Raw)

object InProcessLocalFileSystem {
  /** POSIX permissions in the order of the mode bits, high bit first. */
  private val Bits = PosixFilePermission.values.toSeq

  final class Raw extends RawLocalFileSystem {
    override def setPermission(p: Path, permission: FsPermission): Unit = {
      val mode = permission.toShort
      val perms = new java.util.HashSet[PosixFilePermission]
      Bits.zipWithIndex.foreach { case (b, i) => if ((mode & (1 << (8 - i))) != 0) perms.add(b) }
      Files.setPosixFilePermissions(pathToFile(p).toPath, perms)
    }
  }
}
