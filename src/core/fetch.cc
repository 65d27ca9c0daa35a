#include "core/fetch.hh"

#include "common/logging.hh"

namespace sdsp
{

FetchUnit::FetchUnit(const MachineConfig &config,
                     const std::vector<Instruction> &code_in,
                     PredictorBank &predictor, DataCache *icache_in)
    : cfg(config), code(code_in), btb(predictor), icache(icache_in),
      threads(config.numThreads),
      statBlocksPerThread(config.numThreads, 0)
{
}

bool
FetchUnit::fetchable(const ThreadState &thread) const
{
    return !thread.finished && !thread.stopped &&
           thread.pc < code.size();
}

void
FetchUnit::tick(Cycle now)
{
    if (icache)
        icache->beginCycle(now);
    for (auto &thread : threads) {
        if (thread.stallScore > 0)
            --thread.stallScore;
    }
}

int
FetchUnit::selectThread()
{
    unsigned n = cfg.numThreads;

    switch (cfg.fetchPolicy) {
      case FetchPolicy::TrueRoundRobin: {
        // The modulo-N counter advances every cycle irrespective of
        // thread state; a turn given to a thread that cannot fetch is
        // simply wasted. Threads that have committed HALT are dead
        // forever and are skipped (they are no longer resident).
        unsigned tried = 0;
        unsigned pick;
        do {
            pick = rotation;
            rotation = (rotation + 1) % n;
            ++tried;
        } while (threads[pick].finished && tried < n);
        if (threads[pick].finished)
            return -1;
        return fetchable(threads[pick]) ? static_cast<int>(pick) : -1;
      }

      case FetchPolicy::MaskedRoundRobin: {
        // Masked threads are skipped so other threads can take their
        // place in the SU; when every fetchable thread is masked the
        // selector falls back to one of them rather than idle (with
        // one resident thread, masking would otherwise only starve
        // the machine).
        int fallback = -1;
        for (unsigned tried = 0; tried < n; ++tried) {
            unsigned pick = rotation;
            rotation = (rotation + 1) % n;
            if (!fetchable(threads[pick]))
                continue;
            if (!threads[pick].maskedOut)
                return static_cast<int>(pick);
            if (fallback < 0)
                fallback = static_cast<int>(pick);
        }
        return fallback;
      }

      case FetchPolicy::ConditionalSwitch: {
        if (switchPending || !fetchable(threads[rotation % n])) {
            switchPending = false;
            ++statSwitches;
            for (unsigned tried = 1; tried <= n; ++tried) {
                unsigned pick = (rotation + tried) % n;
                if (fetchable(threads[pick])) {
                    rotation = pick;
                    return static_cast<int>(pick);
                }
            }
            return -1;
        }
        return static_cast<int>(rotation % n);
      }

      case FetchPolicy::WeightedRoundRobin: {
        // Per-thread credits implement priorities: a thread with
        // weight w fetches w times per rotation round. When every
        // fetchable thread is out of credits, the round restarts.
        auto weight_of = [&](unsigned t) {
            return cfg.fetchWeights.empty() ? 1u
                                            : cfg.fetchWeights[t];
        };
        for (int attempt = 0; attempt < 2; ++attempt) {
            for (unsigned tried = 0; tried < n; ++tried) {
                unsigned pick = rotation;
                if (threads[pick].credits > 0 &&
                    fetchable(threads[pick])) {
                    --threads[pick].credits;
                    if (threads[pick].credits == 0)
                        rotation = (rotation + 1) % n;
                    return static_cast<int>(pick);
                }
                rotation = (rotation + 1) % n;
            }
            // Round exhausted: refill credits and retry once.
            bool any = false;
            for (unsigned t = 0; t < n; ++t) {
                threads[t].credits = weight_of(t);
                any |= fetchable(threads[t]);
            }
            if (!any)
                break;
        }
        return -1;
      }

      case FetchPolicy::Adaptive: {
        // Round robin, skipping threads whose recent failure to
        // commit suggests a low execution rate; if every candidate is
        // above threshold, fall back to plain round robin so fetch
        // never starves.
        int fallback = -1;
        for (unsigned tried = 0; tried < n; ++tried) {
            unsigned pick = rotation;
            rotation = (rotation + 1) % n;
            if (!fetchable(threads[pick]))
                continue;
            if (fallback < 0)
                fallback = static_cast<int>(pick);
            if (threads[pick].stallScore <= cfg.adaptiveThreshold)
                return static_cast<int>(pick);
        }
        return fallback;
      }
    }
    return -1;
}

void
FetchUnit::fetchBlock(ThreadId tid, FetchedBlock &block)
{
    ThreadState &thread = threads[tid];
    InstAddr pc = thread.pc;
    InstAddr aligned = pc & ~(cfg.blockSize - 1);
    auto end = static_cast<InstAddr>(
        std::min<std::size_t>(aligned + cfg.blockSize, code.size()));

    block.tid = tid;
    block.insts.clear();
    statWastedSlots += pc - aligned; // slots before the entry PC

    bool redirected = false;
    InstAddr next_pc = end;

    for (InstAddr i = pc; i < end; ++i) {
        const Instruction &inst = code[i];
        // Built in place in the latch's reused storage.
        FetchedInst &slot = block.insts.emplace_back();
        slot.pc = i;
        slot.inst = inst;
        slot.predictedNextPc = i + 1;

        if (inst.isHalt()) {
            // Stop fetching this thread; resume only if this HALT
            // turns out to be on a squashed wrong path.
            thread.stopped = true;
            statWastedSlots += end - i - 1;
            ++statBlocks;
            ++statBlocksPerThread[tid];
            statInsts += block.insts.size();
            return;
        }

        if (inst.isDirectJump()) {
            slot.predictedTaken = true;
            slot.predictedNextPc = inst.staticTarget(i);
            next_pc = slot.predictedNextPc;
            redirected = true;
            statWastedSlots += end - i - 1;
            break;
        }

        if (inst.isCondBranch() || inst.isIndirectJump()) {
            // A predicted-taken transfer ends the block; not taken
            // (or a BTB miss) keeps filling it.
            BranchPrediction prediction = btb.predict(tid, i);
            if (prediction.hit && prediction.taken) {
                slot.predictedTaken = true;
                slot.predictedNextPc = prediction.target;
                next_pc = prediction.target;
                redirected = true;
                statWastedSlots += end - i - 1;
                break;
            }
        }
    }

    if (!redirected)
        next_pc = end;

    thread.pc = next_pc;
    if (next_pc >= code.size())
        thread.stopped = true;

    ++statBlocks;
    ++statBlocksPerThread[tid];
    statInsts += block.insts.size();
}

bool
FetchUnit::fetchCycle(Cycle now, FetchedBlock &out)
{
    int pick = selectThread();
    if (pick < 0) {
        ++statIdleCycles;
        return false;
    }
    auto tid = static_cast<ThreadId>(pick);

    if (icache) {
        ThreadState &thread = threads[tid];
        if (now < thread.ifetchReadyAt) {
            // Waiting on an instruction line refill; the slot is
            // wasted (only this thread slows down).
            ++statIcacheStallCycles;
            return false;
        }
        // One I-cache line holds one aligned fetch block.
        Addr line_addr = (thread.pc & ~(cfg.blockSize - 1)) * 4;
        if (!icache->canAccept(now)) {
            icache->noteRejection();
            ++statIcacheStallCycles;
            return false;
        }
        CacheAccessResult probe =
            icache->access(line_addr, now, false, tid);
        if (!probe.hit) {
            thread.ifetchReadyAt = probe.readyCycle;
            ++statIcacheStallCycles;
            return false;
        }
    }
    fetchBlock(tid, out);
    return true;
}

void
FetchUnit::onCommitBlockedBottom(ThreadId tid)
{
    ThreadState &thread = threads[tid];
    if (cfg.fetchPolicy == FetchPolicy::MaskedRoundRobin &&
        !thread.maskedOut) {
        thread.maskedOut = true;
        ++statMaskEvents;
    }
    if (cfg.fetchPolicy == FetchPolicy::Adaptive)
        thread.stallScore += 4;
}

void
FetchUnit::onCommitBlock(ThreadId tid)
{
    threads[tid].maskedOut = false;
}

void
FetchUnit::onSwitchTrigger()
{
    if (cfg.fetchPolicy == FetchPolicy::ConditionalSwitch)
        switchPending = true;
}

void
FetchUnit::onSquash(ThreadId tid, InstAddr next_pc)
{
    ThreadState &thread = threads[tid];
    thread.pc = next_pc;
    thread.stopped = next_pc >= code.size();
    // A pending instruction-line refill is for the wrong path.
    thread.ifetchReadyAt = 0;
}

void
FetchUnit::onHaltCommitted(ThreadId tid)
{
    threads[tid].finished = true;
    threads[tid].stopped = true;
    threads[tid].maskedOut = false;
}

bool
FetchUnit::allFinished() const
{
    for (const auto &thread : threads) {
        if (!thread.finished)
            return false;
    }
    return true;
}

void
FetchUnit::reportStats(StatsRegistry &registry,
                       const std::string &prefix) const
{
    registry.add(prefix, "blocks", static_cast<double>(statBlocks));
    registry.add(prefix, "instructions",
                 static_cast<double>(statInsts));
    registry.add(prefix, "wastedSlots",
                 static_cast<double>(statWastedSlots));
    registry.add(prefix, "idleCycles",
                 static_cast<double>(statIdleCycles));
    registry.add(prefix, "switches",
                 static_cast<double>(statSwitches));
    registry.add(prefix, "maskEvents",
                 static_cast<double>(statMaskEvents));
    registry.add(prefix, "icacheStallCycles",
                 static_cast<double>(statIcacheStallCycles));
    for (unsigned t = 0; t < statBlocksPerThread.size(); ++t) {
        registry.add(prefix, format("thread%u.blocks", t),
                     static_cast<double>(statBlocksPerThread[t]));
    }
    if (icache)
        icache->reportStats(registry, prefix + ".icache");
}

} // namespace sdsp
