/**
 * @file
 * Figure 7 reproduction: CCCA error detection coverage of an
 * unprotected DDR4 DIMM, DDR4+DECC, DDR4+eDECC and DDR4+AIECC against
 * 1-pin, 2-pin and all-pin transmission errors, per command pattern.
 *
 * The whole grid is one checkpointed campaign (DESIGN.md §12): one
 * resumable unit per (error model, pattern, protection level) cell,
 * in the exact order the original nested sweep loops visited them.
 * Each unit runs a fresh InjectionCampaign over the explicit error
 * list its sweep would build — 1-pin in injectable-pin order, 2-pin
 * in combinadic (= nested i<j loop) order, all-pin as samples 1..N —
 * so a checkpointed run's every trial, fault ID and merged stat is
 * bit-identical to the original sweeps'.  --heartbeat PATH adds live
 * progress telemetry (DESIGN.md §13).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "aiecc/cost_model.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "inject/campaign.hh"
#include "obs/heartbeat.hh"
#include "obs/lineage.hh"
#include "ras/health.hh"

using namespace aiecc;

namespace
{

enum class ErrorModel
{
    OnePin,
    TwoPin,
    AllPin,
};

const char *
modelName(ErrorModel m)
{
    switch (m) {
    case ErrorModel::OnePin:
        return "1-pin";
    case ErrorModel::TwoPin:
        return "2-pin";
    default:
        return "all-pin";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    const unsigned allPinSamples =
        opt.allPin ? opt.allPin : (opt.quick ? 20u : 80u);
    const bool twoPin = !opt.quick;
    const unsigned jobs = opt.jobs;

    bench::banner("Figure 7: CCCA error detection coverage");
    std::printf("coverage = detected or provably-benign fraction; "
                "residual SDC/MDC shown alongside.\n"
                "all-pin noise: %u Monte-Carlo samples per cell%s\n\n",
                allPinSamples,
                twoPin ? "" : " (2-pin sweep skipped: --quick)");

    const ProtectionLevel levels[] = {
        ProtectionLevel::None, ProtectionLevel::Ddr4Decc,
        ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc};
    const char *levelNames[] = {"None", "DECC", "eDECC", "AIECC"};

    std::vector<ErrorModel> models{ErrorModel::OnePin};
    if (twoPin)
        models.push_back(ErrorModel::TwoPin);
    models.push_back(ErrorModel::AllPin);

    const std::vector<CommandPattern> patterns = allPatterns();

    // ---- checkpointed campaign plan -------------------------------
    // One unit per grid cell, model-major then pattern then level —
    // the original sweep-loop visit order.  Every unit constructs a
    // fresh InjectionCampaign (trial counter at 0), exactly as the
    // one-shot sweeps did, so resume needs no counter positioning.
    struct UnitSpec
    {
        size_t modelIdx;
        size_t patternIdx;
        size_t levelIdx;
    };
    std::vector<UnitSpec> units;
    for (size_t mi = 0; mi < models.size(); ++mi) {
        for (size_t p = 0; p < patterns.size(); ++p) {
            for (size_t li = 0; li < 4; ++li)
                units.push_back({mi, p, li});
        }
    }

    // The error list one unit's sweep enumerates, in sweep order.
    auto unitErrors = [&](const UnitSpec &u,
                          const InjectionCampaign &camp) {
        std::vector<PinError> errors;
        switch (models[u.modelIdx]) {
        case ErrorModel::OnePin:
            for (Pin pin :
                 injectablePins(camp.mechanisms().parPinPresent()))
                errors.push_back(PinError::onePin(pin));
            break;
        case ErrorModel::TwoPin: {
            // Combinadic rank order IS the nested i<j loop order.
            const CombinationSpace space = camp.kPinSpace(2);
            errors.reserve(space.size());
            for (uint64_t rank = 0; rank < space.size(); ++rank)
                errors.push_back(camp.kPinError(2, rank));
            break;
        }
        case ErrorModel::AllPin:
            for (unsigned s = 0; s < allPinSamples; ++s)
                errors.push_back(PinError::allPins(s + 1));
            break;
        }
        return errors;
    };
    auto unitLabel = [&](const UnitSpec &u) {
        return std::string(modelName(models[u.modelIdx])) + "/" +
               patternName(patterns[u.patternIdx]) + "/" +
               levelNames[u.levelIdx];
    };

    // Merged campaign state (what the checkpoint persists): one
    // CampaignStats per cell plus one cost accountant per level.
    std::vector<CampaignStats> cells(units.size());
    std::vector<obs::CostAccountant> levelCost;
    for (ProtectionLevel level : levels)
        levelCost.emplace_back(
            makeCostModel(Mechanisms::forLevel(level)));

    // ---- RAS health telemetry (--health, DESIGN.md §15) -----------
    // One parent-side monitor rides every unit's campaign: shard
    // buffers re-emit in shard order at each batch join, so the
    // merged symptom stream — and with it the monitor — is
    // bit-identical for any --jobs value.  The per-unit lineage
    // ledger below exists only to switch the campaign onto its
    // detection-replay path (inject -> observe* -> resolve per
    // trial); it is discarded with the unit.
    ras::HealthMonitor rasMon;
    obs::Observer rasObs;
    if (opt.health)
        rasObs.addSink(&rasMon);

    bench::Checkpointer cp(opt,
                           bench::campaignIdFor(opt, "fig7_coverage"));
    const bench::Checkpointer::Cursor resume = cp.cursor();
    for (size_t u = 0; u < units.size(); ++u)
        cp.restore("cell:" + std::to_string(u), cells[u]);
    for (size_t li = 0; li < 4; ++li)
        cp.restore("cost:" + std::to_string(li), levelCost[li]);
    if (opt.health)
        cp.restore("ras", rasMon);

    // ---- heartbeat (DESIGN.md §13) --------------------------------
    obs::HeartbeatEmitter hb;
    bench::openHeartbeat(hb, opt,
                         bench::campaignIdFor(opt, "fig7_coverage"));
    std::vector<uint64_t> unitTrials, shardsBefore, trialsBefore;
    uint64_t totalShards = 0, totalTrials = 0;
    for (const UnitSpec &u : units) {
        const InjectionCampaign probe(
            Mechanisms::forLevel(levels[u.levelIdx]));
        const uint64_t n = unitErrors(u, probe).size();
        shardsBefore.push_back(totalShards);
        trialsBefore.push_back(totalTrials);
        unitTrials.push_back(n);
        totalShards += shardCount(n, InjectionCampaign::trialShardSize);
        totalTrials += n;
    }
    hb.setTotals(totalShards, totalTrials);
    if (opt.health)
        hb.setPayload(
            [&](obs::JsonWriter &w) { rasMon.writeHeartbeat(w); });

    const uint64_t batch = checkpointBatchShards(jobs);
    auto persist = [&](size_t u, uint64_t nextShard) {
        if (!cp.enabled())
            return;
        CampaignCheckpoint &st = cp.state();
        st.set("cell:" + std::to_string(u), state::save(cells[u]));
        for (size_t li = 0; li < 4; ++li)
            st.set("cost:" + std::to_string(li), state::save(levelCost[li]));
        if (opt.health)
            st.set("ras", state::save(rasMon));
        cp.save(u, nextShard,
                "unit " + std::to_string(u + 1) + "/" +
                    std::to_string(units.size()) + " (" +
                    unitLabel(units[u]) + ") shard " +
                    std::to_string(nextShard));
    };

    for (size_t u = resume.unit; u < units.size(); ++u) {
        const UnitSpec &spec = units[u];
        InjectionCampaign camp(
            Mechanisms::forLevel(levels[spec.levelIdx]));
        camp.setCostAccountant(&levelCost[spec.levelIdx]);
        obs::LineageLedger rasLineage;
        if (opt.health) {
            camp.setObserver(&rasObs);
            camp.setLineageLedger(&rasLineage);
        }
        const std::vector<PinError> errors = unitErrors(spec, camp);
        uint64_t nextShard = u == resume.unit ? resume.shard : 0;
        hb.setNote(unitLabel(spec));
        const RunStatus status = camp.runTrialsCheckpointed(
            patterns[spec.patternIdx], errors, jobs, batch, nextShard,
            [&](uint64_t, const TrialResult &r) { cells[u].add(r); },
            [&](uint64_t, uint64_t end) {
                persist(u, end);
                hb.tick(shardsBefore[u] + end,
                        trialsBefore[u] +
                            std::min(end *
                                         InjectionCampaign::
                                             trialShardSize,
                                     unitTrials[u]));
            });
        if (status == RunStatus::Interrupted) {
            hb.finalTick(shardsBefore[u] + nextShard,
                         trialsBefore[u] +
                             std::min(nextShard *
                                          InjectionCampaign::
                                              trialShardSize,
                                      unitTrials[u]));
            cp.exitInterrupted();
        }
    }
    hb.finalTick(totalShards, totalTrials);

    // ---- report ---------------------------------------------------
    // Cell index = ((modelIdx * patterns + p) * 4 + li).
    auto cellAt = [&](size_t mi, size_t p, size_t li) -> CampaignStats & {
        return cells[(mi * patterns.size() + p) * 4 + li];
    };

    CampaignStats levelTotal[4];
    for (size_t mi = 0; mi < models.size(); ++mi) {
        std::printf("---- %s errors ----\n", modelName(models[mi]));
        TextTable t;
        t.header({"pattern", "None", "DECC", "eDECC", "AIECC",
                  "AIECC SDC", "AIECC MDC"});
        for (size_t p = 0; p < patterns.size(); ++p) {
            std::vector<std::string> row{patternName(patterns[p])};
            for (size_t li = 0; li < 4; ++li) {
                const CampaignStats &stats = cellAt(mi, p, li);
                row.push_back(TextTable::pct(stats.coveredFrac()));
                levelTotal[li].merge(stats);
            }
            const CampaignStats &aieccStats = cellAt(mi, p, 3);
            row.push_back(TextTable::pct(aieccStats.sdcFrac()));
            row.push_back(TextTable::pct(aieccStats.mdcFrac()));
            t.row(row);
        }
        std::printf("%s\n", t.str().c_str());
    }

    // Reliability x cost over all error models and patterns together.
    bench::CostEntries costs;
    std::vector<bench::ParetoPoint> pareto;
    for (unsigned li = 0; li < 4; ++li) {
        costs.emplace_back(levelNames[li], levelCost[li]);
        pareto.push_back(bench::ParetoPoint::of(
            levelNames[li], "covered_frac",
            levelTotal[li].coveredFrac(), levelCost[li]));
    }
    bench::printParetoTable(pareto);

    bench::RasReport rasReport;
    if (opt.health) {
        rasReport.monitor = &rasMon;
        std::printf("\nRAS health: rank %s, %llu event(s) observed, "
                    "%llu fault(s) followed, %zu topology call(s)\n",
                    ras::healthStateName(rasMon.rankState()),
                    static_cast<unsigned long long>(rasMon.eventsSeen()),
                    static_cast<unsigned long long>(
                        rasMon.faultsInjected()),
                    rasMon.topologies().size());
    }

    bench::writeJsonArtifact(
        opt, "fig7_coverage", costs, pareto, rasReport,
        [&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("allpin_samples", allPinSamples);
            w.kv("two_pin_swept", twoPin);
            w.key("models");
            w.beginObject();
            for (size_t mi = 0; mi < models.size(); ++mi) {
                w.key(modelName(models[mi]));
                w.beginObject();
                for (size_t p = 0; p < patterns.size(); ++p) {
                    w.key(patternName(patterns[p]));
                    w.beginObject();
                    for (size_t li = 0; li < 4; ++li) {
                        w.key(levelNames[li]);
                        cellAt(mi, p, li).writeJson(w);
                    }
                    w.endObject();
                }
                w.endObject();
            }
            w.endObject();
            w.endObject();
        });

    std::printf(
        "Paper cross-checks (Section V-A2):\n"
        "  * AIECC covers 100%% of 1-pin errors; CA parity misses the "
        "CTRL pins;\n"
        "  * 2-pin errors blow large holes in CAP-based coverage "
        "(DECC/eDECC),\n    which AIECC fills via eWCRC/eDECC/CSTC;\n"
        "  * for all-pin noise CAP recovers ~50%% of latched edges, "
        "and only\n    AIECC avoids all SDC and MDC.\n");
    cp.finish();
    return 0;
}
