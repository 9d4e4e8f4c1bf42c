// The CONGEST message unit, shared by the network simulator and the
// edge-queue arena (kept in its own header so the arena does not depend on
// the full simulator interface).
#pragma once

#include <array>
#include <cstdint>

#include "graph/graph.hpp"

namespace drw::congest {

/// A CONGEST message: type tag + <= 4 payload words (O(log n) bits).
///
/// `lane` identifies which multiplexed protocol instance a message belongs
/// to when several run inside one Network::run (see congest/mux.hpp); the
/// simulator gives every (directed edge, lane) pair its own FIFO so each
/// lane's delivery pacing matches a solo run. Lane ids are bounded by the
/// multiplexing width (O(log n) extra bits); plain single-protocol runs
/// leave it 0.
struct Message {
  std::uint16_t type = 0;
  std::array<std::uint64_t, 4> f{};
  /// Declared last so the ubiquitous `Message{type, {payload...}}`
  /// aggregate initializers stay valid (lane defaults to 0).
  std::uint16_t lane = 0;
};
static_assert(sizeof(Message) <= 48, "Message must stay O(log n) bits");

/// The fixed-width record of the token-walk kernel (see network.hpp
/// TokenKernelProtocol): one walk token in flight, 16 bytes, no type tag or
/// lane. Field meaning belongs to the protocol: Phase 1 carries (source,
/// seq, total length, remaining hops), a naive walk (job index, -, -,
/// remaining hops). Every field is a node id or walk counter -- O(log n)
/// bits, like a Message payload.
struct KernelToken {
  std::uint32_t id = 0;
  std::uint32_t seq = 0;
  std::uint32_t total = 0;
  std::uint32_t remaining = 0;
};
static_assert(sizeof(KernelToken) == 16, "KernelToken is the 16-byte record");

/// A delivered message together with the neighbor it arrived from (the
/// CONGEST model lets the receiver identify the incoming edge).
struct Delivery {
  Message msg;
  NodeId from = kInvalidNode;
};

/// Columnar (structure-of-arrays) encoding of the dominant message shape:
/// fixed-payload walk tokens whose four payload words all fit in 32 bits
/// (kToken's {source, seq, total, remaining} and kStep's {job, remaining,
/// position, 0} both do -- node ids and walk counters are 32-bit values).
/// The transmit path stages these as three u64 columns (24 bytes carrying
/// message + routing) instead of a 56-byte PendingSend, and keeps the
/// generic path only for the long tail. Packing is lossless for packable
/// messages, so routing tokens through the columns is invisible to
/// protocols -- the bit-identity tests hold with the fast path on.
struct PackedToken {
  std::uint64_t hdr = 0;  ///< (virtual eid << 32) | (type << 16) | lane
  std::uint64_t lo = 0;   ///< f[0] | f[1] << 32
  std::uint64_t hi = 0;   ///< f[2] | f[3] << 32
};

/// True iff `m` round-trips through PackedToken (every payload word fits
/// in 32 bits). One OR + shift + compare on the send hot path.
inline bool token_packable(const Message& m) noexcept {
  return ((m.f[0] | m.f[1] | m.f[2] | m.f[3]) >> 32) == 0;
}

/// Packs a packable message bound for virtual edge `eid` (the stage-time
/// lane is passed explicitly: senders leave Message::lane 0 and the
/// network stamps it, mirroring the generic path).
inline PackedToken pack_token(std::uint32_t eid, const Message& m,
                              std::uint16_t lane) noexcept {
  return PackedToken{
      (static_cast<std::uint64_t>(eid) << 32) |
          (static_cast<std::uint32_t>(m.type) << 16) | lane,
      m.f[0] | (m.f[1] << 32),
      m.f[2] | (m.f[3] << 32)};
}

inline std::uint32_t token_eid(const PackedToken& t) noexcept {
  return static_cast<std::uint32_t>(t.hdr >> 32);
}

/// Reconstructs the staged message (including its lane stamp).
inline Message unpack_token(const PackedToken& t) noexcept {
  Message m;
  m.type = static_cast<std::uint16_t>(t.hdr >> 16);
  m.lane = static_cast<std::uint16_t>(t.hdr);
  m.f = {t.lo & 0xffffffffull, t.lo >> 32, t.hi & 0xffffffffull,
         t.hi >> 32};
  return m;
}

}  // namespace drw::congest
