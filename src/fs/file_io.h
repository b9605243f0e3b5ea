// Filesystem helpers.
//
// Mrs deliberately has no distributed filesystem: it "can read and write to
// any filesystem supported by the kernel" (paper §IV-B).  Everything here
// is plain POSIX: whole-file read/write (atomic via rename), directory
// creation, and recursive enumeration — the last one matters because the
// paper's WordCount input (Project Gutenberg) lives in a nested directory
// tree that Hadoop's loader could not handle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mrs {

Result<std::string> ReadFileToString(const std::string& path);

/// Write via a temp file + rename so readers never see partial content.
/// Durable: the temp fd is fsync'ed before the rename (so a crash after
/// rename can never expose an empty or partial "atomically written" file)
/// and the parent directory is fsync'ed after it (so the rename itself
/// survives a crash) — spill runs and lineage treat these files as
/// durable recoverable state.
Status WriteFileAtomic(const std::string& path, std::string_view content);
/// The same for content given in pieces, written back to back with
/// writev: a caller holding a small header and a large body need not copy
/// both into one buffer first.
Status WriteFileAtomic(const std::string& path,
                       std::span<const std::string_view> parts);

/// Test hook simulating crash-window failures inside WriteFileAtomic.
/// Called before each durability step with "fsync", "rename", or
/// "dirsync"; returning false makes that step fail with EIO.  Pass
/// nullptr to restore normal operation.  Tests only; not thread-safe.
void SetWriteFileAtomicFaultHook(bool (*hook)(const char* step));

Status AppendToFile(const std::string& path, std::string_view content);

/// mkdir -p.
Status EnsureDir(const std::string& path);

/// Recursively remove a directory tree (best-effort).
void RemoveTree(const std::string& path);

bool FileExists(const std::string& path);
bool IsDirectory(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);

/// All regular files under `root`, recursively, sorted lexicographically
/// for deterministic task splits.  Symlinks are not followed.
Result<std::vector<std::string>> ListFilesRecursive(const std::string& root);

/// Create a fresh unique directory under the system temp dir (or $TMPDIR),
/// named "<prefix>XXXXXX".
Result<std::string> MakeTempDir(const std::string& prefix);

/// Join path components with '/' (no normalization).
std::string JoinPath(std::string_view a, std::string_view b);

}  // namespace mrs
