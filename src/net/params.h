/**
 * @file
 * Network and disk latency parameters.
 *
 * The AN2 preset is calibrated against the paper's prototype
 * measurements (Table 2 and Figure 2): a remote page fetch passes
 * through Send-CPU -> Send-DMA -> Wire -> Recv-DMA -> Recv-CPU stages,
 * each store-and-forward per message, with successive messages
 * pipelining across stages. See DESIGN.md section 5 for the fit.
 */

#ifndef SGMS_NET_PARAMS_H
#define SGMS_NET_PARAMS_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace sgms
{

/** What a message is carrying; affects stage costs and priority. */
enum class MsgKind : uint8_t
{
    Request,        ///< getpage request from faulting node to server
    DemandData,     ///< the faulted subpage (program blocks on it)
    BackgroundData, ///< rest-of-page / pipelined follow-on subpages
    PutPage,        ///< eviction traffic to global memory
    // When adding a kind: keep kLastMsgKind below in sync, name it in
    // msg_kind_name(), and give it a priority in Network::priority_of.
};

/** Last enumerator of MsgKind; update together with the enum. */
inline constexpr MsgKind kLastMsgKind = MsgKind::PutPage;

/**
 * Number of MsgKind enumerators. Every per-kind array (NetStats,
 * Network's per-kind counters, FaultPlan probabilities) is sized by
 * this, so a new kind can never silently index out of bounds.
 */
inline constexpr size_t kMsgKindCount =
    static_cast<size_t>(kLastMsgKind) + 1;

static_assert(kMsgKindCount >= 1 && kMsgKindCount <= 64,
              "MsgKind count out of sane range");

/** Pipeline components: the tracks of Net spans (Figure 2 rows). */
enum class Component : uint8_t
{
    ReqCpu, ///< faulting-node CPU (fault handling, receive interrupt)
    ReqDma, ///< faulting-node controller DMA
    Wire,   ///< network interconnect occupancy
    SrvDma, ///< serving-node controller DMA
    SrvCpu, ///< serving-node CPU (request processing, send setup)
};

const char *component_name(Component c);
const char *msg_kind_name(MsgKind k);

/** Per-stage latency parameters of the remote-memory network path. */
struct NetParams
{
    /**
     * Fixed faulting-node cost charged before the request message is
     * injected: trap handling, GMS directory lookup, restart setup.
     */
    Tick fault_handle = ticks::from_us(120);

    /** Size of a getpage request message. */
    uint32_t request_bytes = 64;

    /** Sender CPU cost to issue the request message. */
    Tick send_cpu_request = ticks::from_us(15);

    /** Server CPU cost to set up each outgoing data message. */
    Tick send_cpu_data = ticks::from_us(10);

    /** Controller DMA: fixed per message + per byte (both nodes). */
    Tick dma_fixed = ticks::from_us(10);
    Tick dma_per_byte = ticks::from_ns(18);

    /** Wire occupancy: fixed per message + per byte. */
    Tick wire_fixed = ticks::from_us(5);
    Tick wire_per_byte = ticks::from_ns(51.6); // 155 Mb/s AN2

    /** Server CPU cost to process a getpage request (lookup + map). */
    Tick request_proc = ticks::from_us(160);

    /**
     * Faulting-node CPU receive cost per data message: interrupt +
     * protocol handling (fixed) plus the copy into the frame.
     */
    Tick recv_fixed = ticks::from_us(55);
    Tick recv_per_byte = ticks::from_ns(40);

    /**
     * Receive cost for *pipelined follow-on* subpages. The paper's
     * simulations assume an intelligent controller that deposits
     * subpages and updates valid bits with no CPU work (zero cost);
     * its AN2 prototype instead pays ~68-91 us per subpage. Both are
     * expressible here.
     */
    Tick pipelined_recv_fixed = 0;
    Tick pipelined_recv_per_byte = 0;

    /**
     * Serve queued demand traffic (requests and faulted subpages)
     * before queued background traffic at every stage. On by
     * default: the GMS server software can order its send queue, and
     * the switch arbitrates per-VC. The FIFO ablation turns it off.
     */
    bool priority_scheduling = true;

    /**
     * Let demand traffic preempt an *in-flight* background occupancy
     * (the remainder is requeued). This approximates ATM cell
     * interleaving: the cells of a small demand transfer pass a
     * large rest-of-page transfer already in progress, so a burst of
     * faults sees near-idle demand latency while background data
     * still consumes the same total bandwidth. Without it, every
     * demand fetch in a fault burst queues behind a full
     * rest-of-page transfer, which contradicts the best-case-
     * dominated per-fault waits the paper measures (Figure 5).
     */
    bool preemptive_demand = true;

    /**
     * Analytic single-message latency through all five stages,
     * excluding fault_handle and request-path time. Used by Figure 1
     * and for quick estimates; the simulator itself uses the staged
     * resources.
     */
    Tick data_message_latency(uint32_t bytes) const;

    /**
     * Analytic latency from fault to program restart for a demand
     * fetch of @p bytes on an idle network (fault handling + request
     * path + data message).
     */
    Tick demand_fetch_latency(uint32_t bytes) const;

    /** AN2 ATM calibrated against the paper's Table 2. */
    static NetParams an2();

    /**
     * A faster future network derived from the AN2 calibration:
     * wire and DMA per-byte rates divided by @p bandwidth_factor,
     * per-message fixed costs divided by @p fixed_factor (software
     * and controller overheads improve more slowly than raw
     * bandwidth). Used to test the paper's closing prediction that
     * the optimal subpage size *shrinks* as the network-to-memory
     * speed ratio grows.
     */
    static NetParams future(double bandwidth_factor,
                            double fixed_factor = 1.0);

    /** Lightly-loaded 10 Mb/s Ethernet with mid-90s stack overheads. */
    static NetParams ethernet();

    /** Heavily-loaded 10 Mb/s Ethernet (contention-inflated). */
    static NetParams loaded_ethernet();
};

/** Disk access model: fixed positioning cost plus transfer rate. */
struct DiskParams
{
    Tick base = ticks::from_ms(8);          ///< seek + rotation + driver
    Tick per_byte = ticks::from_ns(180);    ///< media/bus transfer

    Tick
    access_latency(uint32_t bytes) const
    {
        return base + per_byte * bytes;
    }

    /** Paper: "average local disk access takes 4 ms" (sequential). */
    static DiskParams sequential();

    /** Paper: "... to 14 ms" (random access). */
    static DiskParams random_access();

    /** Default backing-store model used for the disk_8192 bars. */
    static DiskParams default_local();
};

} // namespace sgms

#endif // SGMS_NET_PARAMS_H
