// Core value types shared by every module: node/packet identifiers, mesh
// ports, message classes and the flit/packet records that travel the network.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/alloc_stats.hpp"
#include "common/assert.hpp"

namespace hybridnoc {

using Cycle = std::uint64_t;
using NodeId = std::int32_t;
using PacketId = std::uint64_t;

constexpr NodeId kInvalidNode = -1;
/// "No event pending" sentinel for next-event-cycle computations.
constexpr Cycle kCycleNever = ~Cycle{0};

/// Router port directions on a 2D mesh. Local is the NI injection/ejection
/// port; the four cardinal ports connect to neighbouring routers.
enum class Port : std::uint8_t { Local = 0, North, East, South, West };
constexpr int kNumPorts = 5;
constexpr int kInvalidPort = -1;

inline const char* port_name(Port p) {
  switch (p) {
    case Port::Local: return "local";
    case Port::North: return "north";
    case Port::East: return "east";
    case Port::South: return "south";
    case Port::West: return "west";
  }
  return "?";
}

/// Returns the port on the neighbouring router that faces back at `p`.
inline Port opposite(Port p) {
  switch (p) {
    case Port::North: return Port::South;
    case Port::South: return Port::North;
    case Port::East: return Port::West;
    case Port::West: return Port::East;
    case Port::Local: return Port::Local;
  }
  return Port::Local;
}

/// Network-level message kinds. Data messages carry workload payloads;
/// the other three implement the circuit-switched path configuration
/// protocol of Section II-B of the paper.
enum class MsgType : std::uint8_t {
  Data,
  SetupRequest,  ///< reserves slots hop by hop toward the destination
  Teardown,      ///< releases slots along a (partially) reserved path
  AckSuccess,    ///< destination reached; circuit is usable
  AckFailure,    ///< reservation conflict; source must retry or give up
};

inline const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Data: return "data";
    case MsgType::SetupRequest: return "setup";
    case MsgType::Teardown: return "teardown";
    case MsgType::AckSuccess: return "ack+";
    case MsgType::AckFailure: return "ack-";
  }
  return "?";
}

/// How a message traverses the fabric.
enum class Switching : std::uint8_t { Packet, Circuit };

/// Coarse producer classes used for statistics and per-class policies.
enum class TrafficClass : std::uint8_t { Synthetic, Cpu, Gpu, Config };

/// One network packet. Flits carry a raw pointer to their packet; the packet
/// keeps itself alive while any of its flits are in flight via the `flight`
/// self-anchor (see begin_flight/consume_flit below), so router stages reach
/// routing and accounting metadata without any per-flit refcount traffic.
struct Packet {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  /// Network destination of this traversal. Under vicinity-sharing this is
  /// the hop-off node; `final_dst` then holds the true destination.
  NodeId dst = kInvalidNode;
  NodeId final_dst = kInvalidNode;
  MsgType type = MsgType::Data;
  Switching switching = Switching::Packet;
  TrafficClass traffic_class = TrafficClass::Synthetic;
  int num_flits = 1;

  Cycle created = 0;   ///< when the producer generated the message
  Cycle injected = 0;  ///< when the head flit left the source NI queue

  // --- configuration-message payload (Section II-B) ---
  /// First reserved slot at the *next* router the message will enter.
  int slot_id = -1;
  /// Number of consecutive slots each reservation needs.
  int duration = 0;
  /// Slot-table generation the message was created under. Every dynamic
  /// resize (Section II-C) wipes all slot tables and bumps the network-wide
  /// generation; routers and NIs discard config messages whose generation is
  /// stale, since the state they reference no longer exists.
  std::uint64_t table_gen = 0;
  /// Teardown only: the router at which the corresponding setup failed (the
  /// failure ack's source). The teardown evaporates there WITHOUT releasing —
  /// the entries at the fail node belong to the conflicting connection, not
  /// to the path being destroyed. kInvalidNode = walk to the destination.
  NodeId teardown_stop = kInvalidNode;

  /// Opaque token for request/reply matching in the heterogeneous model.
  std::uint64_t payload = 0;

  /// GPU message slack in cycles (Section V-A2): the transmission delay this
  /// message tolerates without hurting performance, estimated from the number
  /// of ready warps. Negative = no slack information (use the latency-based
  /// switching decision instead).
  std::int64_t slack = -1;
  /// May this message use the circuit-switched network at all? (The paper
  /// packet-switches all CPU traffic and hybrid-switches only GPU messages
  /// in the heterogeneous evaluation.)
  bool cs_eligible = true;
  /// Set on packets an NI re-injects (vicinity hop-off, hitchhiker bounce)
  /// so they are not double-counted as new workload packets.
  bool reinjected = false;

  // --- end-to-end recovery metadata (cfg.e2e_recovery) ---
  /// NI that first injected this message into the network. Survives the
  /// dst-rewrites of vicinity hop-offs and retransmission copies, so the
  /// destination knows where the end-to-end ack must go.
  NodeId origin = kInvalidNode;
  /// Id of the original transmission this packet retransmits (0 = this IS
  /// the original). The destination dedups and acks on the original id.
  PacketId retx_of = 0;
  /// End-to-end acknowledgement carrying the acked id in `payload`. Travels
  /// as an ordinary 1-flit packet-switched message.
  bool e2e_ack = false;
  /// Set once by the starvation watchdog so one stalled packet is not
  /// re-counted on every sweep.
  bool stall_flagged = false;

  // --- hitchhiker-sharing metadata (Section III-A1) ---
  /// Input port (at the hop-on router) of the shared slot-table entry the
  /// message rides, and that entry's output port. Set by the source NI from
  /// its Destination Lookup Table; -1 when not hitchhiking.
  int share_in_port = -1;
  int share_out_port = -1;

  bool is_hitchhiker() const { return share_in_port >= 0; }

  bool is_config() const { return type != MsgType::Data; }

  // --- flit-flight lifetime (transient; never serialized) ---
  /// Self-reference held from the moment the packet's flits are minted until
  /// the last one is consumed. This single acquire/release pair replaces the
  /// per-flit shared_ptr copies of the old Flit layout. A default copy would
  /// carry a stray reference to the source, so make_packet(const Packet&)
  /// clears both fields on every clone.
  std::shared_ptr<Packet> flight;
  /// Flits of this packet not yet terminally consumed (ejected at an NI,
  /// evaporated at a router, or cancelled from a CS plan). The flit count is
  /// committed up front at begin_flight, so it reaches zero exactly when the
  /// whole packet has been accounted for.
  int live_flits = 0;
};

using PacketPtr = std::shared_ptr<Packet>;

/// Anchors `p` for transmission: every one of its `num_flits` flits is now
/// either in flight or still to be minted, and the packet owns itself until
/// consume_flit returns the anchor.
inline void begin_flight(const PacketPtr& p) {
  HN_CHECK_MSG(p && !p->flight && p->live_flits == 0, "packet already in flight");
  HN_CHECK_MSG(p->num_flits > 0, "flightless packet");
  p->flight = p;
  p->live_flits = p->num_flits;
  alloc_stats_bump(AllocStats::instance().flight_acquires);
}

/// Terminal consumption of one in-flight flit of `p`. Returns the packet's
/// anchor — non-null exactly when this was the last live flit, at which point
/// the caller becomes the sole owner (destination delivery) or lets the
/// packet die by dropping the return value (router evaporation).
inline PacketPtr consume_flit(Packet* p) {
  HN_CHECK_MSG(p && p->live_flits > 0, "consume_flit on a packet with no live flits");
  if (--p->live_flits > 0) return nullptr;
  alloc_stats_bump(AllocStats::instance().flight_releases);
  return std::move(p->flight);
}

enum class FlitType : std::uint8_t { Head, Body, Tail, HeadTail };

/// Unit of flow control: 16 bytes on the wire (Table I), and 16 bytes in the
/// simulator: the pointer, then the 4-byte sequence number, then four 1-byte
/// fields, with no padding, so a flit travels in two registers. Trivially
/// copyable: the packet handle is a raw pointer kept alive by the packet's
/// flight anchor, so moving a flit through channels and FIFOs is a plain copy
/// with no refcount or allocator traffic.
struct Flit {
  Packet* pkt = nullptr;
  int seq = 0;  ///< position within the packet, 0-based
  FlitType type = FlitType::HeadTail;
  Switching switching = Switching::Packet;
  /// Virtual channel at the input port this flit is heading into; chosen by
  /// the upstream VC allocator. Unused for circuit-switched flits. One byte
  /// holds every VC id: NocConfig::validate caps num_vcs at 32.
  std::int8_t vc = 0;
  /// A link fault flipped payload bits in flight. Control fields (routing,
  /// VC, slot arithmetic) are assumed separately protected, so a corrupted
  /// flit still traverses normally; per-hop CRC checks flag it and the
  /// destination NI squashes the whole packet instead of delivering garbage.
  bool corrupted = false;

  bool is_head() const { return type == FlitType::Head || type == FlitType::HeadTail; }
  bool is_tail() const { return type == FlitType::Tail || type == FlitType::HeadTail; }
  bool valid() const { return pkt != nullptr; }
};
static_assert(sizeof(Flit) == 16, "Flit must stay 16 bytes with no padding");
static_assert(std::is_trivially_copyable_v<Flit>, "flits move by plain copy");

}  // namespace hybridnoc
