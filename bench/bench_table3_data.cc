/**
 * @file
 * Table III reproduction: data + address reliability of QPC,
 * QPC+Azul, QPC+eDECC-t and QPC+eDECC-c under Monte-Carlo injection
 * of data errors (none / 1 bit / 1 chip / 1 rank) crossed with
 * address errors (none / 1 bit / 32 bits).
 *
 * Each cell prints the paper's notation: an SDC percentage when
 * silent corruption is possible, otherwise the dominant corrected /
 * detected outcome (CE-D, CE-R(+), CE-RD(+), DUE).
 *
 * With --exhaustive, the enumerable cells — 1-bit data (576 transfer
 * positions), 1-bit address (32 bits), and their cross product —
 * switch from sampling to full enumeration of every error position,
 * so their columns are proofs over the whole space rather than
 * estimates.  The whole grid is one checkpointed campaign (DESIGN.md
 * §12): --checkpoint/--resume survive a kill at any instant with a
 * byte-identical final artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "aiecc/cost_model.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "inject/montecarlo.hh"
#include "obs/coverage.hh"
#include "obs/heartbeat.hh"
#include "ras/health.hh"

using namespace aiecc;

namespace
{

std::string
cellText(const MonteCarloCell &cell)
{
    const double sdc = cell.sdcFrac();
    if (sdc >= 0.5)
        return TextTable::pct(sdc) + " SDC";
    std::string label = dataOutcomeName(cell.dominant());
    if (cell.count(DataOutcome::Sdc) > 0) {
        label = TextTable::pct(sdc) + " SDC / " + label;
    } else if (cell.trials) {
        // Report the Monte-Carlo resolution floor, paper-style.
        label += " (<" +
                 TextTable::num(100.0 / static_cast<double>(cell.trials),
                                2) +
                 "% SDC)";
    }
    return label;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    const uint64_t trials =
        opt.trials ? opt.trials : (opt.quick ? 2000u : 20000u);
    const unsigned jobs = resolveJobs(opt.jobs);
    ShardPlan plan;
    plan.jobs = opt.jobs;

    bench::banner("Table III: data and address reliability comparison");
    std::printf("%llu Monte-Carlo trials per cell (paper: 4e9; scale "
                "with --trials N), %u worker thread(s)%s\n\n",
                static_cast<unsigned long long>(trials), jobs,
                opt.exhaustive ? "; enumerable cells run exhaustively"
                               : "");

    const EccScheme schemes[] = {EccScheme::Qpc, EccScheme::AzulQpc,
                                 EccScheme::EDeccTransformQpc,
                                 EccScheme::EDeccQpc};
    const DataErrorModel dataModels[] = {
        DataErrorModel::None, DataErrorModel::Bit1, DataErrorModel::Chip1,
        DataErrorModel::Rank1};
    const AddrErrorModel addrModels[] = {
        AddrErrorModel::None, AddrErrorModel::Bit1,
        AddrErrorModel::Bits32};

    const char *schemeNames[] = {"QPC", "QPC+Azul", "QPC+eDECC-t",
                                 "QPC+eDECC-c"};

    struct CellResult
    {
        DataErrorModel dm;
        AddrErrorModel am;
        bool exhaustive = false; ///< fully enumerated, not sampled
        uint64_t cellTrials = 0; ///< trials each scheme runs here
        MonteCarloCell bySch[4];
    };
    std::vector<CellResult> results;
    for (auto dm : dataModels) {
        for (auto am : addrModels) {
            if (dm == DataErrorModel::None && am == AddrErrorModel::None)
                continue;
            CellResult res{dm, am, false, trials, {}};
            const uint64_t space = DataMonteCarlo::cellSpaceSize(dm, am);
            if (opt.exhaustive && space > 0) {
                res.exhaustive = true;
                res.cellTrials = space;
            }
            results.push_back(std::move(res));
        }
    }

    // One ledger follows every Monte-Carlo fault: IDs are salted by
    // scheme and streamed by (data, addr) cell, so all 4 schemes and
    // all 11 injecting cells coexist without collisions.
    obs::LineageLedger lineage;

    // One cost accountant per scheme, accumulated across every cell:
    // each trial bills its write, demand read, codec work, and any
    // retry re-reads (recovery-billed) to the scheme under test.
    obs::Observer costObs[4];
    std::vector<obs::CostAccountant> schemeCost;
    for (unsigned si = 0; si < 4; ++si) {
        Mechanisms mech;
        mech.ecc = schemes[si];
        schemeCost.emplace_back(makeCostModel(mech));
    }
    for (unsigned si = 0; si < 4; ++si)
        costObs[si].setCost(&schemeCost[si]);

    // ---- RAS health telemetry (--health, DESIGN.md §15) -----------
    // One monitor rides all four schemes' symptom streams: with a
    // sink attached, each Monte-Carlo engine buffers its flagged
    // trials' events per shard and re-emits them in shard order at
    // the batch join, so the monitor is bit-identical for any --jobs
    // value.  Addresses are uniform random here, so no topology ever
    // concentrates — the value is the windowed CE/UE/retry rates and
    // the health-state machine under each scheme's detection profile.
    ras::HealthMonitor rasMon;
    if (opt.health) {
        for (unsigned si = 0; si < 4; ++si)
            costObs[si].addSink(&rasMon);
    }

    // ---- checkpointed campaign plan -------------------------------
    // 44 units in fixed order: cell-major, scheme-minor.  Monte-Carlo
    // fault IDs derive from (scheme, cell, trial-in-cell), so resume
    // needs no counter positioning — only the merged state.
    bench::Checkpointer cp(opt,
                           bench::campaignIdFor(opt, "table3_data"));

    const size_t numUnits = results.size() * 4;
    const bench::Checkpointer::Cursor resume = cp.cursor();
    for (size_t u = 0; u < numUnits; ++u)
        cp.restore("cell:" + std::to_string(u), results[u / 4].bySch[u % 4]);
    cp.restore("lineage", lineage);
    for (unsigned si = 0; si < 4; ++si)
        cp.restore("cost:" + std::to_string(si), schemeCost[si]);
    if (opt.health)
        cp.restore("ras", rasMon);

    // ---- heartbeat (DESIGN.md Â§13) --------------------------------
    // Commit-driven ticks with a live coverage/cost payload; commit
    // runs on the main thread after the batch merge, so the payload
    // reads settled state.
    obs::HeartbeatEmitter hb;
    bench::openHeartbeat(hb, opt,
                         bench::campaignIdFor(opt, "table3_data"));
    auto unitTrials = [&](size_t u) {
        return results[u / 4].cellTrials;
    };
    std::vector<uint64_t> shardsBefore, trialsBefore;
    uint64_t totalShards = 0, totalTrials = 0;
    for (size_t u = 0; u < numUnits; ++u) {
        shardsBefore.push_back(totalShards);
        trialsBefore.push_back(totalTrials);
        totalShards += shardCount(unitTrials(u), plan.shardSize);
        totalTrials += unitTrials(u);
    }
    hb.setTotals(totalShards, totalTrials);
    hb.setPayload([&](obs::JsonWriter &w) {
        const obs::CoverageMatrix::Audit live =
            obs::CoverageMatrix::fromLedger(lineage).audit();
        w.kv("cov_injected", live.injected);
        w.kv("cov_unaccounted", live.unaccounted);
        for (unsigned si = 0; si < 4; ++si) {
            const std::string key =
                "cost_sch" + std::to_string(si) + "_";
            w.kv(key + "storage_bits",
                 schemeCost[si].total(obs::CostCategory::Storage));
            w.kv(key + "bus_bits",
                 schemeCost[si].total(obs::CostCategory::Bus));
        }
        if (opt.health)
            rasMon.writeHeartbeat(w);
    });
    auto heartbeatAt = [&](size_t u, uint64_t doneShardsInUnit) {
        hb.tick(shardsBefore[u] + doneShardsInUnit,
                trialsBefore[u] +
                    std::min(doneShardsInUnit * plan.shardSize,
                             unitTrials(u)));
    };

    const uint64_t batch = checkpointBatchShards(opt.jobs);
    auto persist = [&](size_t u, uint64_t nextShard) {
        if (!cp.enabled())
            return;
        CampaignCheckpoint &st = cp.state();
        st.set("cell:" + std::to_string(u),
               state::save(results[u / 4].bySch[u % 4]));
        st.set("lineage", state::save(lineage));
        for (unsigned si = 0; si < 4; ++si)
            st.set("cost:" + std::to_string(si),
                   state::save(schemeCost[si]));
        if (opt.health)
            st.set("ras", state::save(rasMon));
        const CellResult &res = results[u / 4];
        cp.save(u, nextShard,
                "unit " + std::to_string(u + 1) + "/" +
                    std::to_string(numUnits) + " (" +
                    std::string(schemeNames[u % 4]) + "/" +
                    dataErrorName(res.dm) + "/" + addrErrorName(res.am) +
                    ") shard " + std::to_string(nextShard));
    };

    const auto begin = std::chrono::steady_clock::now();
    for (size_t u = resume.unit; u < numUnits; ++u) {
        CellResult &res = results[u / 4];
        const unsigned si = static_cast<unsigned>(u % 4);
        uint64_t nextShard = u == resume.unit ? resume.shard : 0;
        DataMonteCarlo mc(schemes[si]);
        mc.setLineageLedger(&lineage);
        mc.setObserver(&costObs[si]);
        hb.setNote(std::string(schemeNames[si]) + "/" +
                   dataErrorName(res.dm) + "/" + addrErrorName(res.am));
        const RunStatus status = mc.runCellCheckpointed(
            res.dm, res.am, res.cellTrials, res.exhaustive, plan, batch,
            nextShard, res.bySch[si],
            [&](uint64_t, uint64_t end) {
                persist(u, end);
                heartbeatAt(u, end);
            });
        if (status == RunStatus::Interrupted) {
            hb.finalTick(shardsBefore[u] + nextShard,
                         trialsBefore[u] +
                             std::min(nextShard * plan.shardSize,
                                      unitTrials(u)));
            cp.exitInterrupted();
        }
    }
    hb.finalTick(totalShards, totalTrials);
    const uint64_t elapsedNs =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());

    // ---- report ---------------------------------------------------
    TextTable t;
    t.header({"data err", "addr err", "QPC", "QPC+Azul", "QPC+eDECC-t",
              "QPC+eDECC-c"});
    DataErrorModel lastDm = DataErrorModel::None;
    bool firstCell = true;
    for (const auto &res : results) {
        if (!firstCell && res.dm != lastDm)
            t.separator();
        std::vector<std::string> row{
            (firstCell || res.dm != lastDm) ? dataErrorName(res.dm) : "",
            addrErrorName(res.am) + (res.exhaustive ? " [exh]" : "")};
        for (unsigned si = 0; si < 4; ++si)
            row.push_back(cellText(res.bySch[si]));
        t.row(row);
        lastDm = res.dm;
        firstCell = false;
    }
    t.separator();
    std::printf("%s\n", t.str().c_str());
    std::printf("campaign wall clock: %.2f s at --jobs %u\n\n",
                static_cast<double>(elapsedNs) * 1e-9, jobs);

    // Conservation audit over every trial that injected anything
    // (the ledger skips nothing-injected trials by construction).
    const obs::CoverageMatrix coverage =
        obs::CoverageMatrix::fromLedger(lineage);
    const obs::CoverageMatrix::Audit audit = coverage.audit();
    std::printf("lineage: %llu faults injected, %llu unaccounted, "
                "ledger digest %016llx\n\n",
                static_cast<unsigned long long>(audit.injected),
                static_cast<unsigned long long>(audit.unaccounted),
                static_cast<unsigned long long>(lineage.digest()));

    // Reliability x cost: each scheme's aggregate SDC-free fraction
    // over the injecting cells against what its protection cost.
    bench::CostEntries costs;
    std::vector<bench::ParetoPoint> pareto;
    for (unsigned si = 0; si < 4; ++si) {
        MonteCarloCell agg;
        for (const auto &res : results)
            agg.merge(res.bySch[si]);
        costs.emplace_back(schemeNames[si], schemeCost[si]);
        pareto.push_back(bench::ParetoPoint::of(
            schemeNames[si], "sdc_free_frac", 1.0 - agg.sdcFrac(),
            schemeCost[si]));
    }
    bench::printParetoTable(pareto);

    bench::RasReport rasReport;
    if (opt.health) {
        rasReport.monitor = &rasMon;
        std::printf("\nRAS health: rank %s, %llu event(s) observed, "
                    "%zu topology call(s)\n",
                    ras::healthStateName(rasMon.rankState()),
                    static_cast<unsigned long long>(rasMon.eventsSeen()),
                    rasMon.topologies().size());
    }

    bench::writeJsonArtifact(
        opt, "table3_data", costs, pareto, rasReport,
        [&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("trials_per_cell", trials);
            w.kv("jobs_resolved", jobs);
            w.kv("elapsed_ns", elapsedNs);
            w.key("cells");
            w.beginArray();
            for (const auto &res : results) {
                w.beginObject();
                w.kv("data_error", dataErrorName(res.dm));
                w.kv("addr_error", addrErrorName(res.am));
                w.kv("exhaustive", res.exhaustive);
                for (unsigned si = 0; si < 4; ++si) {
                    w.key(schemeNames[si]);
                    res.bySch[si].writeJson(w);
                }
                w.endObject();
            }
            w.endArray();
            w.key("coverage");
            coverage.writeJson(w);
            w.key("lineage");
            lineage.writeJson(w);
            w.endObject();
        });

    std::printf(
        "Paper cross-checks (Table III):\n"
        "  * QPC alone: 100%% SDC for every address-error cell;\n"
        "  * QPC+Azul: ~6.3%% SDC whenever the wrong address aliases "
        "the 4-bit CRC;\n"
        "  * eDECC-t detects address errors (CE-R) but cannot diagnose "
        "them;\n"
        "  * eDECC-c corrects and precisely diagnoses (CE-R+/CE-RD+); "
        "chipkill\n    (1-chip correction) is preserved by all "
        "variants.\n"
        "Note: residual ~2e-4 SDC in beyond-capability cells is the "
        "textbook\nbounded-distance RS miscorrection floor (see "
        "EXPERIMENTS.md).\n");

    if (!audit.ok) {
        for (const std::string &v : audit.violations)
            std::fprintf(stderr, "coverage audit: %s\n", v.c_str());
        std::fprintf(stderr,
                     "coverage audit FAILED: %llu of %llu injected "
                     "faults unaccounted\n",
                     static_cast<unsigned long long>(audit.unaccounted),
                     static_cast<unsigned long long>(audit.injected));
        return 1;
    }
    cp.finish();
    return 0;
}
