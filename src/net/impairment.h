/**
 * @file
 * Declarative per-direction link impairments (DESIGN.md section 15).
 *
 * An Impairment is a value describing what a netem-style adversarial
 * channel does to one direction of a Link: extra latency and jitter,
 * packet reordering, duplication, payload corruption (exercising the
 * CRC-reject path at the receiver), asymmetric bandwidth throttling,
 * and bursty Gilbert–Elliott two-state loss. The Link interprets the
 * value inside transmit() using its own per-direction deterministic
 * RNG, so a fixed seed replays the same channel byte for byte.
 *
 * The value doubles as the unit of the scenario DSL's grammar: a
 * token stream like "delay 3us jitter 2us dup 10% corrupt 1%
 * reorder 25% 40us rate 2.5 ge 2% 30% 80%" parses into one
 * Impairment (see parseImpairment).
 */

#ifndef PMNET_NET_IMPAIRMENT_H
#define PMNET_NET_IMPAIRMENT_H

#include <string>

#include "common/stats.h"

namespace pmnet::net {

/**
 * What one adversarial channel direction does to traffic. The
 * default-constructed value is the identity (no impairment); a Link
 * with an inactive Impairment consumes zero extra RNG draws, so
 * installing and removing `Impairment{}` cannot perturb a run.
 */
struct Impairment
{
    /** Fixed extra one-way delay added after serialization. */
    TickDelta extraDelay = 0;
    /** Max additional uniform random delay in [0, jitter]. */
    TickDelta jitter = 0;
    /** Probability a delivered packet is also delivered twice. */
    double duplicateRate = 0.0;
    /**
     * Probability a delivered packet has one CRC-covered header bit
     * flipped (non-PMNet packets get a payload byte flipped); the
     * receiver must detect and drop it.
     */
    double corruptRate = 0.0;
    /** Probability a packet is held back by reorderDelay, letting
     *  later packets overtake it (a reordering window). */
    double reorderRate = 0.0;
    /** How far a reordered packet is held back. */
    TickDelta reorderDelay = 0;
    /** Line-rate override in Gbit/s; 0 keeps the link's native rate.
     *  Applying it to only one direction models asymmetric links. */
    double bandwidthGbps = 0.0;

    /** @name Gilbert–Elliott two-state loss
     * The channel sits in a Good or Bad state with per-packet loss
     * probabilities lossGood/lossBad and per-packet transition
     * probabilities goodToBad/badToGood. Uniform loss p is the
     * degenerate case lossGood == lossBad == p with no transitions.
     *  @{
     */
    double geGoodToBad = 0.0;
    double geBadToGood = 0.0;
    double geLossGood = 0.0;
    double geLossBad = 0.0;
    /** @} */

    /** True when any knob deviates from the identity channel. */
    bool
    active() const
    {
        return extraDelay != 0 || jitter != 0 || duplicateRate > 0.0 ||
               corruptRate > 0.0 || reorderRate > 0.0 ||
               bandwidthGbps > 0.0 || hasLoss();
    }

    /** True when the GE loss process can drop anything. */
    bool
    hasLoss() const
    {
        return geLossGood > 0.0 || geLossBad > 0.0 ||
               geGoodToBad > 0.0;
    }

    /** Uniform loss as the degenerate one-state GE channel. */
    static Impairment
    uniformLoss(double p)
    {
        Impairment imp;
        imp.geLossGood = p;
        imp.geLossBad = p;
        return imp;
    }
};

/**
 * Parse a whitespace-separated impairment token stream:
 *
 *   delay D      fixed extra delay            (D = 300ns | 3us | 1ms)
 *   jitter D     uniform random delay [0, D]
 *   dup P        duplication probability      (P = 10% | 0.1)
 *   corrupt P    corruption probability
 *   reorder P D  hold-back probability and window
 *   rate G       bandwidth override in Gbit/s
 *   loss P       uniform loss probability
 *   ge Pgb Pbg Plbad [Plgood]   Gilbert–Elliott: good->bad and
 *                bad->good transition probabilities, loss-in-bad,
 *                and optional loss-in-good (default 0)
 *
 * An empty stream parses to the identity impairment. Returns false
 * and fills @p error on malformed input.
 */
bool parseImpairment(const std::string &tokens, Impairment *out,
                     std::string *error);

/** Canonical one-line rendering of the grammar above (empty when
 *  inactive); parseImpairment(describeImpairment(i)) round-trips. */
std::string describeImpairment(const Impairment &imp);

/** Parse "300ns" / "25us" / "1.5ms" into ticks; false on garbage. */
bool parseDuration(const std::string &text, TickDelta *out);

/** Parse "10%" or "0.1" into a probability in [0, 1]. */
bool parseProbability(const std::string &text, double *out);

} // namespace pmnet::net

#endif // PMNET_NET_IMPAIRMENT_H
