// Observability layer, part 3: labelled probe macros.
//
// A probe site is one place in an algorithm where two orthogonal tools
// want a hook:
//  * fault injection (src/fault): stall or halt a thread exactly there, to
//    replay the paper's "processes halted or delayed" hypothesis;
//  * counting (src/obs): record that the mechanism fired, to explain the
//    benchmark curves.
//
// MSQ_PROBE_COUNT fuses both at the labelled CAS windows the queues
// already annotate (ms.E9, ms.D12, ...), so the site label stays the
// single source of truth shared by the simulator's p.at(...)
// lines, the fault plans, and the counter reports.  Sites that only ever
// stall (e.g. lock-held critical sections) keep plain MSQ_PROBE.
//
// Cost: both macros inherit the layered gating of their halves -- compiled
// out entirely under MSQ_PROBES=0 / MSQ_OBS=0, one relaxed load each when
// compiled in but not armed.
#pragma once

#include "fault/fault_plan.hpp"
#include "obs/counters.hpp"

/// Fault-injection stall point only (no counter).
#define MSQ_PROBE(site) ::msq::fault::point(site)

/// Stall point + counter bump, e.g. the linearizing CAS attempts:
///   MSQ_PROBE_COUNT("ms.E9", kCasAttempt);
#define MSQ_PROBE_COUNT(site, counter) \
  do {                                 \
    ::msq::fault::point(site);         \
    MSQ_COUNT(counter);                \
  } while (0)
