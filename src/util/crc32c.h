// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum used
// by most storage systems (HDFS, iSCSI, ext4). Used by the FileStore
// scrubber to detect silent block corruption before repair.
//
// Two backends selected once at startup: the SSE4.2 CRC32 instruction
// (8 bytes/insn) when the CPU has it, else the table-driven software loop.
// The SSE4.2 path runs three independent crc32q chains over adjacent 8 KiB
// (then 256 B) lanes and folds them with precomputed zero-append tables,
// about 2.5x the speed of one chain. Both backends produce identical
// values for every input; GALLOPER_CRC32C=scalar forces the software path.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace galloper {

// One-shot CRC of a buffer.
uint32_t crc32c(ConstByteSpan data);

// Incremental form: crc32c_extend(crc32c_extend(kCrc32cInit, a), b)
// finalized with crc32c_finish equals crc32c(a ‖ b).
inline constexpr uint32_t kCrc32cInit = 0xffffffffu;
uint32_t crc32c_extend(uint32_t state, ConstByteSpan data);
inline uint32_t crc32c_finish(uint32_t state) { return state ^ 0xffffffffu; }

// Name of the backend in use: "sse4.2" or "scalar".
const char* crc32c_backend();

}  // namespace galloper
