// End-to-end pipeline suite: drives the real autocts_cli binary (path baked
// in via AUTOCTS_CLI_PATH) over a tiny synthetic dataset through
//
//   search --derive-top-k  ->  kill  ->  search --resume
//     ->  evaluate-topk  ->  kill  ->  evaluate-topk (checkpoint resume)
//
// and asserts the interrupted pipeline reproduces the straight-through
// run's candidate set and per-candidate metrics bit-for-bit (the CLI prints
// exact hex-float images for this purpose), at 1 and 2 eval workers.
//
// Everything here crosses a process boundary on purpose: the in-process
// suites (checkpoint_test, eval_scheduler_test) already cover the library
// seams; this one proves the shipped binary wires them together.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "common/file_io.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

#ifndef AUTOCTS_CLI_PATH
#error "AUTOCTS_CLI_PATH must be defined by the build"
#endif

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

std::string TempPath(const std::string& name) {
  return fixtures::TempPath("pipeline_e2e", name);
}

CliRun RunCli(const std::string& args, const std::string& tag) {
  const std::string log = TempPath("log_" + tag + ".txt");
  const std::string command =
      std::string(AUTOCTS_CLI_PATH) + " " + args + " > " + log + " 2>&1";
  const int raw = std::system(command.c_str());
  CliRun run;
#ifdef WIFEXITED
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  run.exit_code = raw;
#endif
  std::ifstream stream(log);
  std::stringstream buffer;
  buffer << stream.rdbuf();
  run.output = buffer.str();
  return run;
}

// The deterministic comparison material: every "exact ..." token the
// evaluate-topk subcommand prints, plus the best-candidate line, with the
// "(resumed)" annotations stripped (resume changes provenance, not values).
std::string ExactTokens(const std::string& output) {
  std::istringstream stream(output);
  std::string line;
  std::string tokens;
  while (std::getline(stream, line)) {
    const size_t resumed = line.find(" (resumed)");
    if (resumed != std::string::npos) line.erase(resumed, 10);
    if (line.rfind("candidate ", 0) == 0 ||
        line.rfind("best candidate ", 0) == 0) {
      tokens += line;
      tokens += '\n';
    }
  }
  return tokens;
}

std::string ReadFileOrDie(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  AUTOCTS_CHECK(text.ok()) << path << ": " << text.status().ToString();
  return text.value();
}

// Tiny but real: 5 nodes, 320 steps, 4 derived candidates.
const char kDataFlags[] =
    "--kind traffic-speed --nodes 5 --steps 320 --seed 9 "
    "--input 6 --output 3";
const char kSearchFlags[] =
    "--micro-nodes 3 --macro-blocks 2 --hidden 8 --epochs 2 --batch 8 "
    "--max-batches 3 --search-seed 5 --derive-top-k 4";
const char kEvalFlags[] =
    "--hidden 8 --epochs 1 --batch 8 --max-batches 2 --train-seed 11 "
    "--quiet 1";

// A flag value that does not parse as a whole is a usage error naming the
// flag, raised before any work: no output file is written.
TEST(PipelineE2E, UnparsableFlagValueIsUsageError) {
  const std::string out = TempPath("bad_flag_out.txt");
  const std::pair<std::string, std::string> cases[] = {
      {"generate", "--nodes abc"},
      {"search", "--epochs two"},
      {"search", "--cost-weight 0.5x"},
  };
  for (const auto& [command, flag] : cases) {
    std::remove(out.c_str());
    const CliRun run = RunCli(command + " " + kDataFlags + " " + flag +
                                  " --out " + out,
                              "bad_flag");
    EXPECT_EQ(run.exit_code, 2) << flag << ": " << run.output;
    EXPECT_NE(run.output.find(flag.substr(0, flag.find(' '))),
              std::string::npos)
        << run.output;
    EXPECT_FALSE(FileExists(out)) << flag;
  }
}

TEST(PipelineE2E, KilledAndResumedPipelineIsBitIdentical) {
  const std::string straight_cands = TempPath("straight_cands.txt");
  const std::string killed_cands = TempPath("killed_cands.txt");
  const std::string search_ckpt = TempPath("search.ckpt");
  const std::string eval_ckpt = TempPath("eval.ckpt");
  for (const std::string& path :
       {straight_cands, killed_cands, search_ckpt, eval_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
  const std::string data_and_search =
      std::string(kDataFlags) + " " + kSearchFlags;

  // ---- Straight-through reference: search, then evaluate-topk. ----
  CliRun search = RunCli(
      "search " + data_and_search + " --out " + straight_cands,
      "search_straight");
  ASSERT_EQ(search.exit_code, 0) << search.output;
  ASSERT_NE(search.output.find("candidate set (4 genotypes)"),
            std::string::npos)
      << search.output;

  CliRun eval = RunCli("evaluate-topk " + std::string(kDataFlags) + " " +
                           kEvalFlags + " --candidates " + straight_cands +
                           " --eval-workers 1",
                       "eval_straight");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  const std::string reference = ExactTokens(eval.output);
  ASSERT_NE(reference.find("candidate 3"), std::string::npos) << eval.output;
  ASSERT_NE(reference.find("best candidate"), std::string::npos);

  // ---- Interrupted search: die after the first checkpoint, resume. ----
  CliRun killed = RunCli("search " + data_and_search + " --out " +
                             killed_cands +
                             " --checkpoint " + search_ckpt +
                             " --checkpoint-every 2 --die-after-checkpoints 1",
                         "search_killed");
  ASSERT_EQ(killed.exit_code, 42) << killed.output;
  ASSERT_TRUE(FileExists(search_ckpt));

  CliRun resumed = RunCli("search " + data_and_search + " --out " +
                              killed_cands +
                              " --checkpoint " + search_ckpt +
                              " --checkpoint-every 2 --resume 1",
                          "search_resumed");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  // The resumed search derives the exact same candidate set.
  EXPECT_EQ(ReadFileOrDie(killed_cands), ReadFileOrDie(straight_cands));

  // ---- Interrupted evaluation: die after 2 persisted candidates. ----
  const std::string eval_args = "evaluate-topk " + std::string(kDataFlags) +
                                " " + kEvalFlags +
                                " --candidates " + killed_cands +
                                " --eval-checkpoint " + eval_ckpt;
  CliRun eval_killed = RunCli(
      eval_args + " --eval-workers 1 --die-after-candidates 2",
      "eval_killed");
  ASSERT_EQ(eval_killed.exit_code, 42) << eval_killed.output;
  ASSERT_TRUE(FileExists(eval_ckpt));

  CliRun eval_resumed =
      RunCli(eval_args + " --eval-workers 2", "eval_resumed");
  ASSERT_EQ(eval_resumed.exit_code, 0) << eval_resumed.output;
  // Only the unfinished candidates were re-evaluated...
  EXPECT_NE(eval_resumed.output.find("(resumed)"), std::string::npos)
      << eval_resumed.output;
  EXPECT_NE(eval_resumed.output.find("resumed 2"), std::string::npos)
      << eval_resumed.output;
  // ...and every exact metric token matches the straight-through run.
  EXPECT_EQ(ExactTokens(eval_resumed.output), reference);

  // ---- Worker-count independence through the real binary. ----
  CliRun eval_parallel = RunCli("evaluate-topk " +
                                    std::string(kDataFlags) + " " +
                                    kEvalFlags +
                                    " --candidates " + straight_cands +
                                    " --eval-workers 2",
                                "eval_parallel");
  ASSERT_EQ(eval_parallel.exit_code, 0) << eval_parallel.output;
  EXPECT_EQ(ExactTokens(eval_parallel.output), reference);

  for (const std::string& path :
       {straight_cands, killed_cands, search_ckpt, eval_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
}

// Graceful signal-driven shutdown through the real binary: a SIGTERM
// delivered mid-run (via the --signal-after-* seams, which std::raise a
// real signal through the installed handler) must write a final
// checkpoint, exit with the documented code 143, and leave state a
// --resume run completes bit-identically to a never-interrupted run —
// at 1 and 4 eval workers.
TEST(PipelineE2E, SignalDrivenShutdownResumesBitIdentical) {
  const std::string straight_cands = TempPath("sig_straight_cands.txt");
  const std::string sig_cands = TempPath("sig_cands.txt");
  const std::string search_ckpt = TempPath("sig_search.ckpt");
  const std::string eval_ckpt = TempPath("sig_eval.ckpt");
  for (const std::string& path :
       {straight_cands, sig_cands, search_ckpt, eval_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
  const std::string data_and_search =
      std::string(kDataFlags) + " " + kSearchFlags;

  // Straight-through reference.
  CliRun search = RunCli(
      "search " + data_and_search + " --out " + straight_cands,
      "sig_search_straight");
  ASSERT_EQ(search.exit_code, 0) << search.output;
  CliRun eval = RunCli("evaluate-topk " + std::string(kDataFlags) + " " +
                           kEvalFlags + " --candidates " + straight_cands +
                           " --eval-workers 1",
                       "sig_eval_straight");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  const std::string reference = ExactTokens(eval.output);

  // ---- Search terminated by SIGTERM after the first checkpoint. ----
  CliRun interrupted = RunCli(
      "search " + data_and_search + " --out " + sig_cands + " --checkpoint " +
          search_ckpt +
          " --checkpoint-every 2 --signal-after-checkpoints 1",
      "sig_search_term");
  ASSERT_EQ(interrupted.exit_code, 143) << interrupted.output;
  ASSERT_TRUE(FileExists(search_ckpt));
  ASSERT_NE(interrupted.output.find("final checkpoint written"),
            std::string::npos)
      << interrupted.output;

  CliRun resumed = RunCli("search " + data_and_search + " --out " +
                              sig_cands + " --checkpoint " + search_ckpt +
                              " --checkpoint-every 2 --resume 1",
                          "sig_search_resumed");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(ReadFileOrDie(sig_cands), ReadFileOrDie(straight_cands));

  // ---- Evaluation terminated by SIGTERM after 1 persisted candidate,
  // resumed at 1 and 4 workers. ----
  for (const char* workers : {"1", "4"}) {
    std::remove(eval_ckpt.c_str());
    std::remove((eval_ckpt + ".prev").c_str());
    const std::string eval_args =
        "evaluate-topk " + std::string(kDataFlags) + " " + kEvalFlags +
        " --candidates " + sig_cands + " --eval-checkpoint " + eval_ckpt;
    CliRun eval_term = RunCli(
        eval_args + " --eval-workers 1 --signal-after-candidates 1",
        std::string("sig_eval_term_w") + workers);
    ASSERT_EQ(eval_term.exit_code, 143) << eval_term.output;
    ASSERT_TRUE(FileExists(eval_ckpt));

    CliRun eval_resumed =
        RunCli(eval_args + " --eval-workers " + workers,
               std::string("sig_eval_resumed_w") + workers);
    ASSERT_EQ(eval_resumed.exit_code, 0) << eval_resumed.output;
    EXPECT_NE(eval_resumed.output.find("(resumed)"), std::string::npos)
        << eval_resumed.output;
    EXPECT_EQ(ExactTokens(eval_resumed.output), reference)
        << "workers=" << workers;
  }

  for (const std::string& path :
       {straight_cands, sig_cands, search_ckpt, eval_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
}

// The deadline/step-budget exit path: documented code 75, final checkpoint
// on disk, and a --resume run that completes with the reference result.
TEST(PipelineE2E, StepBudgetExitsCode75AndResumes) {
  const std::string straight_cands = TempPath("budget_straight.txt");
  const std::string budget_cands = TempPath("budget_cands.txt");
  const std::string search_ckpt = TempPath("budget_search.ckpt");
  for (const std::string& path : {straight_cands, budget_cands, search_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
  const std::string data_and_search =
      std::string(kDataFlags) + " " + kSearchFlags;

  CliRun search = RunCli(
      "search " + data_and_search + " --out " + straight_cands,
      "budget_straight");
  ASSERT_EQ(search.exit_code, 0) << search.output;

  CliRun budgeted = RunCli("search " + data_and_search + " --out " +
                               budget_cands + " --checkpoint " + search_ckpt +
                               " --checkpoint-every 2 --step-budget 3",
                           "budget_interrupted");
  ASSERT_EQ(budgeted.exit_code, 75) << budgeted.output;
  ASSERT_TRUE(FileExists(search_ckpt));

  CliRun resumed = RunCli("search " + data_and_search + " --out " +
                              budget_cands + " --checkpoint " + search_ckpt +
                              " --checkpoint-every 2 --resume 1",
                          "budget_resumed");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(ReadFileOrDie(budget_cands), ReadFileOrDie(straight_cands));

  for (const std::string& path : {straight_cands, budget_cands, search_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
}

// A fault plan injected through the real binary: the checkpoint write hit
// by ENOSPC is retried and the run finishes as if nothing happened.
TEST(PipelineE2E, InjectedFaultIsRetriedThroughCli) {
  const std::string cands = TempPath("fault_cands.txt");
  const std::string reference = TempPath("fault_reference.txt");
  const std::string search_ckpt = TempPath("fault_search.ckpt");
  for (const std::string& path : {cands, reference, search_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
  const std::string data_and_search =
      std::string(kDataFlags) + " " + kSearchFlags;

  CliRun clean = RunCli("search " + data_and_search + " --out " + reference,
                        "fault_clean");
  ASSERT_EQ(clean.exit_code, 0) << clean.output;

  CliRun faulted = RunCli("search " + data_and_search + " --out " + cands +
                              " --checkpoint " + search_ckpt +
                              " --checkpoint-every 2 --faults "
                              "write:ENOSPC@1x2",
                          "fault_injected");
  ASSERT_EQ(faulted.exit_code, 0) << faulted.output;
  ASSERT_TRUE(FileExists(search_ckpt));
  EXPECT_EQ(ReadFileOrDie(cands), ReadFileOrDie(reference));

  // A malformed plan is a usage error, reported before any work happens.
  CliRun bad = RunCli("search " + data_and_search + " --out " + cands +
                          " --faults write:NOPE@1",
                      "fault_bad");
  EXPECT_EQ(bad.exit_code, 2) << bad.output;

  for (const std::string& path : {cands, reference, search_ckpt}) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  }
}

TEST(PipelineE2E, EvaluateTopkAcceptsBareGenotypeFile) {
  const std::string genotype_path = TempPath("single_genotype.txt");
  std::remove(genotype_path.c_str());
  // derive-top-k 1 writes the plain single-genotype format.
  CliRun search = RunCli(
      "search " + std::string(kDataFlags) +
          " --micro-nodes 3 --macro-blocks 2 --hidden 8 --epochs 1 "
          "--batch 8 --max-batches 2 --search-seed 5 --derive-top-k 1 "
          "--out " + genotype_path,
      "search_single");
  ASSERT_EQ(search.exit_code, 0) << search.output;
  ASSERT_NE(search.output.find("genotype written"), std::string::npos);

  CliRun eval = RunCli("evaluate-topk " + std::string(kDataFlags) + " " +
                           kEvalFlags + " --candidates " + genotype_path,
                       "eval_single");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  EXPECT_NE(eval.output.find("candidate 0"), std::string::npos)
      << eval.output;
  EXPECT_NE(eval.output.find("best candidate 0"), std::string::npos)
      << eval.output;
  std::remove(genotype_path.c_str());
}

}  // namespace
}  // namespace autocts
