#include "batch/collapse.h"

#include "netlist/netlist.h"

#include <algorithm>
#include <unordered_map>

namespace catlift::batch {

using lift::Fault;
using lift::FaultKind;
using lift::TerminalRef;

namespace {

std::string term_key(const TerminalRef& t) {
    return t.device + ":" + std::to_string(t.terminal);
}

} // namespace

std::string effect_signature(const Fault& f) {
    switch (f.kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort: {
            std::string a = netlist::canon_node(f.net_a);
            std::string b = netlist::canon_node(f.net_b);
            if (b < a) std::swap(a, b);
            return "S:" + a + "|" + b;
        }
        case FaultKind::StuckOpen:
            return "T:" + term_key(f.victim);
        case FaultKind::LineOpen:
        case FaultKind::SplitNode: {
            // Mirror inject(): one terminal is a plain terminal open (the
            // net is implied by the terminal), more than one is a split.
            if (f.group_b.size() == 1) return "T:" + term_key(f.group_b[0]);
            std::vector<TerminalRef> terms = f.group_b;
            std::sort(terms.begin(), terms.end());
            std::string sig = "P:" + netlist::canon_node(f.net);
            for (const TerminalRef& t : terms) (sig += ':') += term_key(t);
            return sig;
        }
    }
    return "?";
}

std::vector<CollapsedClass> collapse(const std::vector<Fault>& faults) {
    std::vector<std::string> sigs;
    sigs.reserve(faults.size());
    for (const Fault& f : faults) sigs.push_back(effect_signature(f));
    return collapse_by_signature(sigs);
}

std::vector<CollapsedClass> collapse_by_signature(
    const std::vector<std::string>& signatures) {
    std::vector<CollapsedClass> classes;
    std::unordered_map<std::string, std::size_t> by_sig;
    by_sig.reserve(signatures.size());
    for (std::size_t i = 0; i < signatures.size(); ++i) {
        if (signatures[i].empty()) {
            classes.push_back(CollapsedClass{i, {i}});
            continue;
        }
        auto [it, fresh] = by_sig.emplace(signatures[i], classes.size());
        if (fresh) classes.push_back(CollapsedClass{i, {i}});
        else classes[it->second].members.push_back(i);
    }
    return classes;
}

std::vector<Job> class_jobs(
    const std::vector<CollapsedClass>& classes,
    const std::function<double(std::size_t)>& probability) {
    std::vector<Job> jobs;
    jobs.reserve(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        double prio = 0.0;
        for (std::size_t m : classes[c].members)
            prio = std::max(prio, probability(m));
        jobs.push_back(Job{c, prio});
    }
    return jobs;
}

} // namespace catlift::batch
