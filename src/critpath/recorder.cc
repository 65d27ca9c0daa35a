#include "critpath/ddg.hh"

#include "common/bitfield.hh"

namespace sdsp
{

void
DdgRecorder::emit(const TraceEvent &event)
{
    switch (event.kind) {
      case TraceEventKind::CommitInst: {
        if (trace_.insts.size() == pendingFirst_) {
            pendingFetchedAt_ = event.args[0];
            pendingDispatchedAt_ = event.args[1];
            pendingWaitCause_ = event.dispatchWaitCause;
        }
        // The opcode field indexes the static table; a committed
        // word always holds a defined opcode.
        const OpInfo &info =
            opInfo(static_cast<Opcode>(bits(event.word, 31, 24)));
        DdgInst &inst = trace_.insts.emplace_back();
        inst.seq = event.seq;
        inst.issuedAt = event.args[2];
        inst.completedAt = event.args[3];
        inst.waitSeq = event.waitSeq;
        inst.missExtra = event.missExtra;
        inst.issueBlockCycle = event.issueBlockCycle;
        inst.issueBlockCause = event.issueBlockCause;
        inst.fuClass = info.fuClass;
        inst.mispredicted = event.mispredicted;
        inst.isLoad = info.flags & kIsLoad;
        inst.isStore = info.flags & kIsStore;
        break;
      }
      case TraceEventKind::CommitBlock: {
        auto first = pendingFirst_;
        auto end = static_cast<std::uint32_t>(trace_.insts.size());
        pendingFirst_ = end;
        if (end == first)
            break; // fully squashed block: no committed work
        DdgBlock block;
        block.tid = event.tid;
        block.blockSeq = event.seq;
        block.committedAt = event.cycle;
        block.fetchedAt = pendingFetchedAt_;
        block.dispatchedAt = pendingDispatchedAt_;
        block.dispatchWaitCause = pendingWaitCause_;
        block.firstInst = first;
        block.instCount = end - first;
        trace_.blocks.push_back(block);
        break;
      }
      default:
        break;
    }
}

CheckedGraph
buildCheckedGraph(const DdgRecorder &recorder,
                  const MachineConfig &config, Cycle measured_cycles)
{
    CheckedGraph checked;
    checked.graph = std::make_unique<DdgGraph>(recorder.trace(), config,
                                               measured_cycles);
    checked.mismatch = checked.graph->verifyExact();
    return checked;
}

} // namespace sdsp
