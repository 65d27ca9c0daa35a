#include "core/processor.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace sdsp
{

namespace
{

/** Validate before any member (which divides by config fields) is
 *  constructed. */
const MachineConfig &
validated(const MachineConfig &config)
{
    config.validate();
    return config;
}

// Per-thread per-cycle evidence bits feeding attributeCycle(). A
// stage sets a bit when it observes the condition; the resolver turns
// the bits into exactly one StallReason charge per thread.
constexpr std::uint8_t kFlagProgress = 1 << 0;
constexpr std::uint8_t kFlagSuFull = 1 << 1;
constexpr std::uint8_t kFlagSbFull = 1 << 2;
constexpr std::uint8_t kFlagFuBusy = 1 << 3;
constexpr std::uint8_t kFlagMemOrder = 1 << 4;
constexpr std::uint8_t kFlagCacheReject = 1 << 5;
constexpr std::uint8_t kFlagSquashed = 1 << 6;

} // namespace

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::Active:
        return "active";
      case StallReason::SuFull:
        return "suFull";
      case StallReason::StoreBufferFull:
        return "storeBufferFull";
      case StallReason::CacheMiss:
        return "cacheMiss";
      case StallReason::FuBusy:
        return "fuBusy";
      case StallReason::OperandWait:
        return "operandWait";
      case StallReason::CommitBlocked:
        return "commitBlocked";
      case StallReason::MispredictRecovery:
        return "mispredictRecovery";
      case StallReason::FetchStarved:
        return "fetchStarved";
      case StallReason::Done:
        return "done";
    }
    return "unknown";
}

const char *
latencyStageName(LatencyStage stage)
{
    switch (stage) {
      case LatencyStage::FetchToDispatch:
        return "fetchToDispatch";
      case LatencyStage::DispatchToIssue:
        return "dispatchToIssue";
      case LatencyStage::IssueToComplete:
        return "issueToComplete";
      case LatencyStage::CompleteToCommit:
        return "completeToCommit";
      case LatencyStage::FetchToCommit:
        return "fetchToCommit";
    }
    return "unknown";
}

Processor::Processor(const MachineConfig &config, const Program &program)
    : Processor(config, DecodedProgram::decode(program))
{
}

Processor::Processor(const MachineConfig &config,
                     std::shared_ptr<const DecodedProgram> program)
    : cfg(validated(config)),
      prog(std::move(program)),
      mem(),
      cache(config.dcache),
      icache(config.perfectICache
                 ? nullptr
                 : std::make_unique<DataCache>(config.icache)),
      sb(config.storeBufferEntries),
      btb(config.btbEntries, config.btbBanks),
      regs(config.numRegisters, config.numThreads),
      su(config.suBlocks(), config.blockSize, config.numThreads,
         config.regsPerThread()),
      fus(config.fu),
      fetch(cfg, prog->code, btb, icache.get()),
      statCommittedPerThread(config.numThreads, 0),
      statIssueHistogram(config.issueWidth + 1, 0),
      statStallCycles(config.numThreads),
      cycleFlags(config.numThreads, 0),
      missPendingUntil(config.numThreads, 0),
      spanReason(config.numThreads, StallReason::Active),
      spanStart(config.numThreads, 0)
{
    // Reject programs that name registers outside the per-thread
    // static partition for this thread count.
    prog->checkRegisterPartition(cfg.numThreads, cfg.regsPerThread());

    // Trace-stream cocktails start each hardware thread at its own
    // entry PC; plain programs leave threadEntries empty and every
    // thread starts at prog.entry as before.
    if (!prog->program.threadEntries.empty()) {
        sdsp_assert(prog->program.threadEntries.size() >=
                        cfg.numThreads,
                    "program provides %zu thread entries but the "
                    "machine has %u threads",
                    prog->program.threadEntries.size(), cfg.numThreads);
        for (unsigned t = 0; t < cfg.numThreads; ++t)
            fetch.setThreadPc(static_cast<ThreadId>(t),
                              prog->program.threadEntries[t]);
    }

    mem.loadProgram(prog->program);
}

Processor::~Processor() = default;

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Processor::commitStage()
{
    if (su.empty())
        return;

    CommitSelection selection =
        su.selectCommit(cfg.commitWindowBlocks());

    // The paper's Masked Round Robin (and the adaptive extension)
    // react to the *lower-most* block failing to commit. A complete
    // bottom block always wins the bottom-up selection at index 0, so
    // whenever it is not the one committing it is incomplete.
    bool bottom_commits = selection.found && selection.blockIndex == 0;
    if (!bottom_commits) {
        fetch.onCommitBlockedBottom(su.block(0).tid);
        ++statCommitBlockedCycles;
    }

    if (!selection.found)
        return;

    if (selection.blockIndex > 0)
        ++statFlexCommits;

    const SuBlock &block = su.block(selection.blockIndex);
    Tag max_seq = 0;
    for (const SuEntry &entry : su.entries(selection.blockIndex)) {
        if (!entry.valid)
            continue;
        sdsp_assert(entry.state == EntryState::Done,
                    "committing an incomplete entry");
        if (entry.badAddress)
            commitFault(entry);
        max_seq = std::max(max_seq, entry.seq);

        if (entry.inst.writesRd())
            regs.write(entry.tid, entry.inst.rd, entry.result);

        // Branch prediction statistics are updated only at result
        // commit (paper section 5.4).
        if (entry.inst.isCondBranch()) {
            InstAddr taken_target = entry.inst.staticTarget(entry.pc);
            btb.update(entry.tid, entry.pc, entry.resolvedTaken,
                       taken_target);
            btb.noteOutcome(entry.mispredicted);
        } else if (entry.inst.isIndirectJump()) {
            btb.update(entry.tid, entry.pc, true,
                       entry.resolvedNextPc);
            btb.noteOutcome(entry.mispredicted);
        }

        if (entry.inst.isHalt()) {
            fetch.onHaltCommitted(entry.tid);
            if (traces(TraceEventKind::CommitHalt)) {
                TraceEvent ev;
                ev.kind = TraceEventKind::CommitHalt;
                ev.cycle = now;
                ev.tid = entry.tid;
                ev.seq = entry.seq;
                ev.pc = entry.pc;
                sink->emit(ev);
            }
        }

        ++statCommitted;
        ++statCommittedPerThread[entry.tid];

        // Per-stage latency histograms, sampled once per retired
        // instruction from its lifecycle stamps.
        auto sample = [&](LatencyStage stage, Cycle value) {
            latencyDists[static_cast<unsigned>(stage)].sample(value);
        };
        sample(LatencyStage::FetchToDispatch,
               entry.dispatchedAt - entry.fetchedAt);
        sample(LatencyStage::DispatchToIssue,
               entry.issuedAt - entry.dispatchedAt);
        sample(LatencyStage::IssueToComplete,
               entry.completedAt - entry.issuedAt);
        sample(LatencyStage::CompleteToCommit, now - entry.completedAt);
        sample(LatencyStage::FetchToCommit, now - entry.fetchedAt);

        if (traces(TraceEventKind::CommitInst)) {
            TraceEvent ev;
            ev.kind = TraceEventKind::CommitInst;
            ev.cycle = now;
            ev.tid = entry.tid;
            ev.seq = entry.seq;
            ev.pc = entry.pc;
            ev.args = {entry.fetchedAt, entry.dispatchedAt,
                       entry.issuedAt, entry.completedAt};
            ev.label = opName(entry.inst.op);
            ev.word = entry.inst.encode();
            if (entry.inst.isLoad() || entry.inst.isStore()) {
                // src1 still holds the base operand at commit, so
                // this recomputes the address issue used (or reads
                // the same replay override).
                ev.memAddr = effectiveAddress(entry);
                ev.hasMemAddr = true;
            }
            ev.taken = entry.resolvedTaken;
            // Dependence evidence for the critical-path builder.
            ev.readyAt = entry.readyAt;
            ev.wakeupSeq = entry.wakeupTag;
            ev.waitSeq = {entry.waitTag1, entry.waitTag2};
            ev.missExtra = entry.missExtra;
            ev.issueBlockCause = entry.issueBlockCause;
            ev.issueBlockCycle = entry.issueBlockCycle;
            ev.dispatchWaitCause = entry.dispatchWaitCause;
            ev.mispredicted = entry.mispredicted;
            sink->emit(ev);
        }
    }

    cycleFlags[block.tid] |= kFlagProgress;

    // Stores of this block may now drain to the cache.
    sb.commitUpTo(block.tid, max_seq);
    fetch.onCommitBlock(block.tid);

    if (traces(TraceEventKind::CommitBlock)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::CommitBlock;
        ev.cycle = now;
        ev.tid = block.tid;
        ev.seq = block.blockSeq;
        ev.args[0] = selection.blockIndex;
        sink->emit(ev);
    }

    su.removeBlock(selection.blockIndex);
}

namespace
{

/** A load or store committed at a misaligned or out-of-range address:
 *  thrown out of step(), caught by run(). */
struct CommitFault : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

} // namespace

void
Processor::commitFault(const SuEntry &entry) const
{
    // Before the block's stores are released to the drain: the store
    // never reaches memory.
    throw CommitFault(format(
        "thread %u at pc %u: %s", unsigned{entry.tid}, entry.pc,
        badAccessText(entry.inst.isStore(), effectiveAddress(entry))
            .c_str()));
}

// --------------------------------------------------------------------
// Writeback
// --------------------------------------------------------------------

void
Processor::handleMispredict(SuEntry &entry)
{
    ++statMispredicts;

    ThreadId tid = entry.tid;
    Tag seq = entry.seq;
    InstAddr pc = entry.pc;
    InstAddr next_pc = entry.resolvedNextPc;

    // Operations of squashed entries still in a functional unit are
    // dropped when they complete: writeback no longer finds them.
    unsigned count = su.squashThread(tid, seq);
    statSquashed += count;
    sb.squash(tid, seq);

    // The fetch latch holds the youngest fetched block; if it belongs
    // to this thread it is wrong-path.
    if (fetchLatchFull && fetchLatch.tid == tid)
        fetchLatchFull = false;

    fetch.onSquash(tid, next_pc);

    cycleFlags[tid] |= kFlagSquashed;

    if (traces(TraceEventKind::Squash)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Squash;
        ev.cycle = now;
        ev.tid = tid;
        ev.seq = seq;
        ev.pc = pc;
        ev.args = {next_pc, count, 0, 0};
        sink->emit(ev);
    }
}

void
Processor::writebackStage()
{
    completions.clear();
    fus.drainCompletions(now, cfg.writebackWidth, completions,
                         [this](const FuCompletion &completion) {
                             return su.entryAt(completion.slot,
                                               completion.seq) != nullptr;
                         });

    for (const FuCompletion &completion : completions) {
        // A mispredict earlier in this loop may have squashed it.
        SuEntry *entry = su.entryAt(completion.slot, completion.seq);
        if (!entry)
            continue;

        su.markDone(*entry);
        entry->completedAt = now;

        if (traces(TraceEventKind::Writeback)) {
            TraceEvent ev;
            ev.kind = TraceEventKind::Writeback;
            ev.cycle = now;
            ev.tid = entry->tid;
            ev.seq = entry->seq;
            ev.pc = entry->pc;
            ev.label = opName(entry->inst.op);
            sink->emit(ev);
        }

        if (entry->inst.writesRd())
            su.broadcast(*entry, entry->result, now, cfg.bypassing);

        if (entry->mispredicted)
            handleMispredict(*entry);
    }
}

// --------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------

void
Processor::executeEntry(SuEntry &entry)
{
    const Instruction &inst = entry.inst;
    RegVal s1 = entry.src1.value;
    RegVal s2 = entry.src2.value;

    if (inst.isCondBranch()) {
        entry.resolvedTaken = evalBranchTaken(inst, s1, s2);
        entry.resolvedNextPc = entry.resolvedTaken
                                   ? inst.staticTarget(entry.pc)
                                   : entry.pc + 1;
        entry.mispredicted =
            entry.resolvedNextPc != entry.predictedNextPc;
    } else if (inst.isDirectJump()) {
        entry.resolvedTaken = true;
        entry.resolvedNextPc = inst.staticTarget(entry.pc);
        // Fetch redirected immediately; never mispredicted.
        entry.mispredicted = false;
        if (inst.writesRd())
            entry.result = evalLinkValue(entry.pc);
    } else if (inst.isIndirectJump()) {
        entry.resolvedTaken = true;
        entry.resolvedNextPc = static_cast<InstAddr>(s1);
        entry.mispredicted =
            entry.resolvedNextPc != entry.predictedNextPc;
    } else if (inst.isHalt() || inst.op == Opcode::NOP ||
               inst.op == Opcode::SPIN) {
        // No architectural result.
    } else if (!inst.isLoad() && !inst.isStore()) {
        entry.result = evalCompute(inst, s1, s2, entry.tid,
                                   cfg.numThreads);
    }
}

Addr
Processor::effectiveAddress(const SuEntry &entry) const
{
    if (replayAddrs && entry.pc < replayAddrs->hasAddr.size() &&
        replayAddrs->hasAddr[entry.pc]) {
        return replayAddrs->addr[entry.pc];
    }
    return evalEffectiveAddress(entry.inst, entry.src1.value);
}

bool
Processor::tryIssue(SuEntry &entry)
{
    const Instruction &inst = entry.inst;
    FuClass cls = inst.info().fuClass;

    if (!fus.canIssue(cls, now)) {
        cycleFlags[entry.tid] |= kFlagFuBusy;
        entry.issueBlockCause = IssueBlockCause::FuBusy;
        entry.issueBlockCycle = now;
        return false;
    }

    Cycle extra_latency = 0;

    if (inst.isLoad()) {
        // Conservative disambiguation: an older same-thread store
        // with an unresolved (not yet executed) address blocks the
        // load (the paper's restricted load/store policy). Charged
        // to operand-wait: the load waits on the store's address.
        if (su.hasOlderUnresolvedStore(entry.tid, entry.seq)) {
            ++statLoadDisambStalls;
            cycleFlags[entry.tid] |= kFlagMemOrder;
            entry.issueBlockCause = IssueBlockCause::MemOrder;
            entry.issueBlockCycle = now;
            return false;
        }
        Addr addr = effectiveAddress(entry);
        std::optional<RegVal> forwarded =
            sb.forward(entry.tid, addr, entry.seq);
        if (forwarded) {
            entry.result = *forwarded;
        } else {
            if (!cache.canAccept(now)) {
                ++statCacheBlockedLoads;
                cache.noteRejection();
                cycleFlags[entry.tid] |= kFlagCacheReject;
                entry.issueBlockCause = IssueBlockCause::CachePort;
                entry.issueBlockCycle = now;
                return false;
            }
            CacheAccessResult access =
                cache.access(addr, now, false, entry.tid);
            extra_latency = access.readyCycle - now;
            entry.missExtra = extra_latency;
            if (extra_latency > 0) {
                // Open this thread's miss window: until the data is
                // back, progress-free cycles read as cache-miss
                // stalls.
                missPendingUntil[entry.tid] = std::max(
                    missPendingUntil[entry.tid], access.readyCycle);
                if (traces(TraceEventKind::CacheMiss)) {
                    TraceEvent ev;
                    ev.kind = TraceEventKind::CacheMiss;
                    ev.cycle = now;
                    ev.tid = entry.tid;
                    ev.seq = entry.seq;
                    ev.pc = entry.pc;
                    ev.args = {addr, access.readyCycle, 0, 0};
                    sink->emit(ev);
                }
            }
            // Loads on a speculative wrong path can carry garbage
            // addresses; they read a dummy value and are squashed
            // before commit. One that commits stops the run
            // (commitFault). A forwarded load needs no check: the
            // older store it reads commits, and faults, first.
            entry.badAddress =
                addr % 8 != 0 || !wordInRange(addr, mem.size());
            entry.result = entry.badAddress ? 0 : mem.read(addr);
        }
    } else if (inst.isStore()) {
        // A slot stays reserved for every unbuffered store at or
        // below this entry's block: the buffer drains in global tag
        // order, so its head cannot retire until the head's whole
        // block commits — which needs every store of that block (and
        // of the blocks below it) to reach the buffer first (see
        // SU::countUnbufferedStoresThrough).
        if (sb.capacity() - sb.size() <=
            su.countUnbufferedStoresThrough(entry)) {
            sb.noteFullStall();
            cycleFlags[entry.tid] |= kFlagSbFull;
            entry.issueBlockCause = IssueBlockCause::StoreBufferFull;
            entry.issueBlockCycle = now;
            return false;
        }
        Addr addr = effectiveAddress(entry);
        // As for loads: the store buffer holds a wrong-path store at
        // any address, and one that commits stops the run.
        entry.badAddress = addr % 8 != 0 || !wordInRange(addr, mem.size());
        sb.insert(entry.seq, entry.tid, addr, entry.src2.value);
        su.markStoreBuffered(entry);
    }

    executeEntry(entry);
    fus.issue(cls, entry.seq, now, extra_latency, su.slotOf(entry));
    entry.issuedAt = now;
    ++statIssued;
    cycleFlags[entry.tid] |= kFlagProgress;

    if (traces(TraceEventKind::Issue)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Issue;
        ev.cycle = now;
        ev.tid = entry.tid;
        ev.seq = entry.seq;
        ev.pc = entry.pc;
        ev.label = opName(inst.op);
        sink->emit(ev);
    }
    return true;
}

void
Processor::issueStage()
{
    // Oldest-first over the Ready entries only.
    unsigned issued = su.issueReady(cfg.issueWidth, [&](SuEntry &entry) {
        return entry.earliestIssue <= now && tryIssue(entry);
    });
    ++statIssueHistogram[issued];
}

// --------------------------------------------------------------------
// Dispatch (decode + rename)
// --------------------------------------------------------------------

void
Processor::renameOperand(ThreadId tid, RegIndex reg, Operand &operand)
{
    // Most recent in-flight writer wins (the earlier instructions of
    // the block being dispatched are already resident), else the
    // committed register file.
    const SuEntry *producer = su.findNewestWriter(tid, reg);

    if (!producer) {
        operand.ready = true;
        operand.value = regs.read(tid, reg);
    } else if (producer->state == EntryState::Done) {
        operand.ready = true;
        operand.value = producer->result;
    } else {
        operand.ready = false;
        operand.tag = producer->seq;
        operand.producer = su.slotOf(*producer);
    }
}

void
Processor::dispatchStage()
{
    if (!fetchLatchFull)
        return;

    if (!su.hasSpace()) {
        // The paper's "scheduling unit stall": the bottom block
        // cannot shift out, so no new entries can be made.
        ++statSuFullStalls;
        cycleFlags[fetchLatch.tid] |= kFlagSuFull;
        latchWaitCause = DispatchWaitCause::SuFull;
        return;
    }

    const FetchedBlock &fetched = fetchLatch;
    ThreadId tid = fetched.tid;

    // 1-bit scoreboarding: no renaming, so dispatch must stall while
    // any in-flight older instruction of this thread writes a
    // destination register this block also writes (WAW) — full
    // renaming never stalls here.
    if (cfg.renameScheme == RenameScheme::Scoreboard1Bit) {
        for (const FetchedInst &slot : fetched.insts) {
            if (slot.inst.writesRd() &&
                su.hasInflightWriter(tid, slot.inst.rd)) {
                ++statScoreboardStalls;
                // WAW wait on an in-flight writer: operand-style.
                cycleFlags[tid] |= kFlagMemOrder;
                latchWaitCause = DispatchWaitCause::Scoreboard;
                return;
            }
        }
    }

    su.beginDispatch(tid, nextSeq);

    // Locals, not members: the entry stores below must not alias the
    // loads of the next iteration.
    const Cycle cycle = now;
    const Cycle fetched_at = fetched.fetchedAt;
    Tag seq = nextSeq;
    for (const FetchedInst &slot : fetched.insts) {
        // Build the entry in place. It is not resident until
        // finishEntry, so renaming its sources cannot see the
        // instruction as a producer of its own source.
        SuEntry &entry = su.appendEntry();
        entry.seq = seq++;
        entry.tid = tid;
        entry.pc = slot.pc;
        entry.inst = slot.inst;
        entry.predictedTaken = slot.predictedTaken;
        entry.predictedNextPc = slot.predictedNextPc;
        entry.fetchedAt = fetched_at;
        entry.dispatchedAt = cycle;

        if (slot.inst.readsRs1())
            renameOperand(tid, slot.inst.rs1, entry.src1);
        if (slot.inst.readsRs2())
            renameOperand(tid, slot.inst.rs2, entry.src2);

        entry.state = entry.operandsReady() ? EntryState::Ready
                                            : EntryState::Waiting;
        entry.earliestIssue = cycle + 1;

        // Dependence evidence: which producers this entry renamed
        // against, whether it was born ready, and why its block
        // waited in the latch.
        entry.waitTag1 = entry.src1.ready ? 0 : entry.src1.tag;
        entry.waitTag2 = entry.src2.ready ? 0 : entry.src2.tag;
        if (entry.state == EntryState::Ready)
            entry.readyAt = cycle;
        entry.dispatchWaitCause = latchWaitCause;

        // Conditional Switch: the decoder signals the fetch unit on
        // long-latency trigger instructions (paper section 5.1).
        if (slot.inst.isSwitchTrigger())
            fetch.onSwitchTrigger();

        entry.valid = true;
        su.finishEntry(entry);
        ++statDispatched;
    }
    nextSeq = seq;

    fetchLatchFull = false;
    latchWaitCause = DispatchWaitCause::None;
    cycleFlags[tid] |= kFlagProgress;

    if (traces(TraceEventKind::Dispatch)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Dispatch;
        ev.cycle = now;
        ev.tid = tid;
        ev.seq = nextSeq - fetched.insts.size();
        ev.pc = fetched.insts.front().pc;
        ev.args[0] = fetched.insts.size();
        sink->emit(ev);
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Processor::fetchStage()
{
    fetch.tick(now);
    if (fetchLatchFull) {
        ++statLatchFullCycles;
        return;
    }
    if (fetch.fetchCycle(now, fetchLatch) &&
        !fetchLatch.insts.empty()) {
        fetchLatch.fetchedAt = now;
        fetchLatchFull = true;
        latchWaitCause = DispatchWaitCause::None;
        cycleFlags[fetchLatch.tid] |= kFlagProgress;

        if (traces(TraceEventKind::Fetch)) {
            TraceEvent ev;
            ev.kind = TraceEventKind::Fetch;
            ev.cycle = now;
            ev.tid = fetchLatch.tid;
            ev.pc = fetchLatch.insts.front().pc;
            ev.args[0] = fetchLatch.insts.size();
            sink->emit(ev);
        }
    }
}

// --------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------

void
Processor::step()
{
    ++now;
    cache.beginCycle(now);
    for (unsigned t = 0; t < cfg.numThreads; ++t)
        cycleFlags[t] = 0;

    statOccupancySum += su.occupancy();
    commitStage();
    sb.drain(cache, mem, now);
    writebackStage();
    issueStage();
    dispatchStage();
    fetchStage();

    attributeCycle();
}

void
Processor::flushStallSpan(ThreadId tid, Cycle end_excl)
{
    if (spanReason[tid] == StallReason::Active ||
        end_excl <= spanStart[tid]) {
        return;
    }
    TraceEvent ev;
    ev.kind = TraceEventKind::Stall;
    ev.cycle = spanStart[tid];
    ev.tid = tid;
    ev.args[0] = static_cast<std::uint64_t>(spanReason[tid]);
    ev.args[1] = end_excl - spanStart[tid];
    ev.label = stallReasonName(spanReason[tid]);
    sink->emit(ev);
}

void
Processor::attributeCycle()
{
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        ThreadId tid = static_cast<ThreadId>(t);
        std::uint8_t flags = cycleFlags[t];

        // Priority resolver: progress beats everything, then the
        // most specific observed obstacle, then resident-work state,
        // then fetch-side state. Exactly one charge per cycle.
        StallReason reason;
        if (flags & kFlagProgress)
            reason = StallReason::Active;
        else if (flags & kFlagSquashed)
            reason = StallReason::MispredictRecovery;
        else if (flags & kFlagSuFull)
            reason = StallReason::SuFull;
        else if (flags & kFlagSbFull)
            reason = StallReason::StoreBufferFull;
        else if ((flags & kFlagCacheReject) ||
                 now < missPendingUntil[t])
            reason = StallReason::CacheMiss;
        else if (flags & kFlagFuBusy)
            reason = StallReason::FuBusy;
        else if (flags & kFlagMemOrder)
            reason = StallReason::OperandWait;
        else if (su.occupancy(tid) > 0)
            reason = su.pendingOf(tid) > 0 ? StallReason::OperandWait
                                           : StallReason::CommitBlocked;
        else if (fetch.finished(tid))
            reason = StallReason::Done;
        else if (fetch.stoppedFetch(tid))
            reason = StallReason::MispredictRecovery;
        else
            reason = StallReason::FetchStarved;

        ++statStallCycles[t][static_cast<unsigned>(reason)];

        if (traces(TraceEventKind::Stall) && reason != spanReason[t]) {
            flushStallSpan(tid, now);
            spanReason[t] = reason;
            spanStart[t] = now;
        }
    }

    if (!traces(TraceEventKind::Counter))
        return;

    unsigned occ = su.occupancy();
    if (occ != lastTracedOccupancy) {
        lastTracedOccupancy = occ;
        TraceEvent ev;
        ev.kind = TraceEventKind::Counter;
        ev.cycle = now;
        ev.label = "su_occupancy";
        ev.args[0] = occ;
        sink->emit(ev);
    }
    if ((now & 255) == 0) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Counter;
        ev.cycle = now;
        ev.label = "ipc";
        ev.fval = static_cast<double>(statCommitted) /
                  static_cast<double>(now);
        ev.hasFval = true;
        sink->emit(ev);
    }
}

bool
Processor::done() const
{
    return fetch.allFinished() && su.empty() && sb.empty() &&
           !fus.busy() && !fetchLatchFull;
}

SimResult
Processor::run(std::optional<Deadline> deadline)
{
    // Without a deadline the first slice runs to the cycle cap.
    const Cycle slice = deadline ? kDeadlineCheckCycles : cfg.maxCycles;
    bool timed_out = false;
    std::string fault;
    try {
        while (!done() && now < cfg.maxCycles) {
            Cycle slice_end = now + std::min(slice, cfg.maxCycles - now);
            while (!done() && now < slice_end)
                step();
            if (deadline && !done() &&
                std::chrono::steady_clock::now() >= *deadline) {
                timed_out = true;
                break;
            }
        }
    } catch (const CommitFault &stopped) {
        fault = stopped.what();
    }

    finishTrace();

    SimResult result;
    result.finished = done();
    result.timedOut = timed_out;
    result.fault = std::move(fault);
    result.cycles = now;
    result.committedInstructions = statCommitted;
    return result;
}

void
Processor::finishTrace()
{
    if (!traces(TraceEventKind::Stall))
        return;
    // Close out any stall span still open at end of run.
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        flushStallSpan(static_cast<ThreadId>(t), now + 1);
        spanStart[t] = now + 1;
    }
}

void
Processor::reportStats(StatsRegistry &registry) const
{
    registry.add("sim.cycles", static_cast<double>(now));
    registry.add("sim.committed", static_cast<double>(statCommitted));
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        registry.add(format("sim.committed.thread%u", t),
                     static_cast<double>(statCommittedPerThread[t]));
    }
    registry.add("sim.ipc",
                 now ? static_cast<double>(statCommitted) /
                           static_cast<double>(now)
                     : 0.0);
    registry.add("sim.dispatched", static_cast<double>(statDispatched));
    registry.add("sim.issued", static_cast<double>(statIssued));
    registry.add("sim.squashed", static_cast<double>(statSquashed));
    registry.add("sim.mispredicts",
                 static_cast<double>(statMispredicts));
    registry.add("sim.suFullStalls",
                 static_cast<double>(statSuFullStalls));
    registry.add("sim.scoreboardStalls",
                 static_cast<double>(statScoreboardStalls));
    registry.add("sim.commitBlockedCycles",
                 static_cast<double>(statCommitBlockedCycles));
    registry.add("sim.flexCommits",
                 static_cast<double>(statFlexCommits));
    registry.add("sim.loadDisambStalls",
                 static_cast<double>(statLoadDisambStalls));
    registry.add("sim.cacheBlockedLoads",
                 static_cast<double>(statCacheBlockedLoads));
    registry.add("sim.latchFullCycles",
                 static_cast<double>(statLatchFullCycles));
    registry.add("sim.avgSuOccupancy", averageSuOccupancy());
    for (unsigned w = 0; w < statIssueHistogram.size(); ++w) {
        registry.add(format("sim.issueWidth%u.cycles", w),
                     static_cast<double>(statIssueHistogram[w]));
    }

    // Stall attribution: per-thread charges (each thread's row sums
    // to sim.cycles) and the cross-thread totals.
    for (unsigned r = 0; r < kNumStallReasons; ++r) {
        const char *rn = stallReasonName(static_cast<StallReason>(r));
        std::uint64_t total = 0;
        for (unsigned t = 0; t < cfg.numThreads; ++t)
            total += statStallCycles[t][r];
        registry.add(format("stall.total.%s", rn),
                     static_cast<double>(total));
    }
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        for (unsigned r = 0; r < kNumStallReasons; ++r) {
            registry.add(
                format("stall.thread%u.%s", t,
                       stallReasonName(static_cast<StallReason>(r))),
                static_cast<double>(statStallCycles[t][r]));
        }
    }

    for (unsigned i = 0; i < kNumLatencyStages; ++i) {
        registry.addDistribution(
            format("latency.%s",
                   latencyStageName(static_cast<LatencyStage>(i))),
            latencyDists[i]);
    }

    fetch.reportStats(registry, "fetch");
    btb.reportStats(registry, "btb");
    cache.reportStats(registry, "dcache");
    sb.reportStats(registry, "sb");
    fus.reportStats(registry, "fu", now);
}

} // namespace sdsp
