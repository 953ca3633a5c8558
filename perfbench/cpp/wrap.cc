/**
 * @file
 * Link-time span recorders for the traced build.
 *
 * perfbench_traced links with -Wl,--wrap=<symbol> for each function
 * below (see CMakeLists.txt), so every call from one MiniSulong object
 * file into another — prepareProgram() into CompileCache::getOrCompile(),
 * getOrCompile() into compileC(), analyzeModule() into replayModule(),
 * ServiceClient::submitJob() into encodeJobRequest(), and so on — lands
 * here first. Each recorder opens a span and forwards to the real
 * definition (__real_<symbol>). The program's own code paths are
 * unchanged; only the calls between its modules are timed.
 */

#include "wrap.h"

#include "analysis/callgraph.h"
#include "analysis/refuter.h"
#include "frontend/compiler.h"
#include "ir/clone.h"
#include "libc/libc_sources.h"
#include "opt/passes.h"
#include "sanitizer/asan_pass.h"
#include "service/protocol.h"
#include "spans.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"

using namespace sulong;
using perfbench::Span;

namespace
{

thread_local LibcVariant t_lastVariant = LibcVariant::safe;

const char *
variantName(LibcVariant variant)
{
    return variant == LibcVariant::safe ? "safe" : "native";
}

double
instructionCount(const Module &module)
{
    size_t n = 0;
    for (const auto &fn : module.functions())
        for (const auto &block : fn->blocks())
            n += block->insts().size();
    return static_cast<double>(n);
}

} // namespace

extern "C" {

// --- libc -----------------------------------------------------------------

std::vector<SourceFile>
__real__ZN6sulong11libcSourcesENS_11LibcVariantE(LibcVariant variant);

std::vector<SourceFile>
__wrap__ZN6sulong11libcSourcesENS_11LibcVariantE(LibcVariant variant)
{
    t_lastVariant = variant;
    Span span("libc.sources");
    return __real__ZN6sulong11libcSourcesENS_11LibcVariantE(variant);
}

// --- frontend -------------------------------------------------------------

CompileResult
__real__ZN6sulong8compileCERKSt6vectorINS_10SourceFileESaIS1_EERKNS_14CompileOptionsE(
    const std::vector<SourceFile> &sources, const CompileOptions &options);

CompileResult
__wrap__ZN6sulong8compileCERKSt6vectorINS_10SourceFileESaIS1_EERKNS_14CompileOptionsE(
    const std::vector<SourceFile> &sources, const CompileOptions &options)
{
    perfbench::Clock::time_point start = perfbench::Clock::now();
    CompileResult result;
    {
        Span span("frontend.compile");
        result =
            __real__ZN6sulong8compileCERKSt6vectorINS_10SourceFileESaIS1_EERKNS_14CompileOptionsE(
                sources, options);
    }
    if (perfbench::recording()) {
        perfbench::recordCount(
            std::string("frontend.compile_ms.") + variantName(t_lastVariant),
            perfbench::msBetween(start, perfbench::Clock::now()));
        if (result.ok())
            perfbench::recordCount("frontend.ir_instructions",
                                   instructionCount(*result.module));
    }
    return result;
}

// --- opt and ir -----------------------------------------------------------

void __real__ZN6sulong13runO0PipelineERNS_6ModuleE(Module &module);
void __real__ZN6sulong13runO3PipelineERNS_6ModuleE(Module &module);

void
__wrap__ZN6sulong13runO0PipelineERNS_6ModuleE(Module &module)
{
    Span span("opt.o0");
    __real__ZN6sulong13runO0PipelineERNS_6ModuleE(module);
}

void
__wrap__ZN6sulong13runO3PipelineERNS_6ModuleE(Module &module)
{
    {
        Span span("opt.o3");
        __real__ZN6sulong13runO3PipelineERNS_6ModuleE(module);
    }
    if (perfbench::recording())
        perfbench::recordCount("opt.o3_ir_instructions",
                               instructionCount(module));
}

std::unique_ptr<Module>
__real__ZN6sulong11cloneModuleERKNS_6ModuleE(const Module &original);

std::unique_ptr<Module>
__wrap__ZN6sulong11cloneModuleERKNS_6ModuleE(const Module &original)
{
    Span span("ir.clone");
    return __real__ZN6sulong11cloneModuleERKNS_6ModuleE(original);
}

// --- sanitizer ------------------------------------------------------------

AsanPassStats __real__ZN6sulong11runAsanPassERNS_6ModuleE(Module &module);

AsanPassStats
__wrap__ZN6sulong11runAsanPassERNS_6ModuleE(Module &module)
{
    Span span("sanitizer.instrument");
    return __real__ZN6sulong11runAsanPassERNS_6ModuleE(module);
}

// --- tools: compile cache and driver --------------------------------------

std::shared_ptr<const CompileCache::Entry>
__real__ZN6sulong12CompileCache12getOrCompileERKSt6vectorINS_10SourceFileESaIS2_EENS_11LibcVariantEib(
    CompileCache *self, const std::vector<SourceFile> &user_sources,
    LibcVariant variant, int opt_level, bool instrumented);

std::shared_ptr<const CompileCache::Entry>
__wrap__ZN6sulong12CompileCache12getOrCompileERKSt6vectorINS_10SourceFileESaIS2_EENS_11LibcVariantEib(
    CompileCache *self, const std::vector<SourceFile> &user_sources,
    LibcVariant variant, int opt_level, bool instrumented)
{
    // A lookup that compiled anything is a miss. The per-instance
    // counter is exact here because the benchmark never shares a cache
    // between concurrently traced lookups.
    uint64_t misses = perfbench::recording() ? self->stats().misses : 0;
    Span span("compile_cache.lookup");
    auto entry =
        __real__ZN6sulong12CompileCache12getOrCompileERKSt6vectorINS_10SourceFileESaIS2_EENS_11LibcVariantEib(
            self, user_sources, variant, opt_level, instrumented);
    if (perfbench::recording())
        span.rename(self->stats().misses != misses ? "compile_cache.miss"
                                                   : "compile_cache.hit");
    return entry;
}

PreparedProgram
__real__ZN6sulong14prepareProgramERKSt6vectorINS_10SourceFileESaIS1_EERKNS_10ToolConfigEPNS_12CompileCacheE(
    const std::vector<SourceFile> &user_sources, const ToolConfig &config,
    CompileCache *cache);

PreparedProgram
__wrap__ZN6sulong14prepareProgramERKSt6vectorINS_10SourceFileESaIS1_EERKNS_10ToolConfigEPNS_12CompileCacheE(
    const std::vector<SourceFile> &user_sources, const ToolConfig &config,
    CompileCache *cache)
{
    Span span("driver.prepare");
    return __real__ZN6sulong14prepareProgramERKSt6vectorINS_10SourceFileESaIS1_EERKNS_10ToolConfigEPNS_12CompileCacheE(
        user_sources, config, cache);
}

// --- analysis -------------------------------------------------------------

CallGraph __real__ZN6sulong9CallGraph5buildERKNS_6ModuleE(const Module &module);

CallGraph
__wrap__ZN6sulong9CallGraph5buildERKNS_6ModuleE(const Module &module)
{
    Span span("analysis.callgraph");
    return __real__ZN6sulong9CallGraph5buildERKNS_6ModuleE(module);
}

SccInfo __real__ZN6sulong8condenseERKNS_9CallGraphE(const CallGraph &graph);

SccInfo
__wrap__ZN6sulong8condenseERKNS_9CallGraphE(const CallGraph &graph)
{
    Span span("analysis.callgraph");
    return __real__ZN6sulong8condenseERKNS_9CallGraphE(graph);
}

ReplayResult
__real__ZN6sulong12replayModuleERKNS_6ModuleERKNS_15AnalysisOptionsE(
    const Module &module, const AnalysisOptions &options);

ReplayResult
__wrap__ZN6sulong12replayModuleERKNS_6ModuleERKNS_15AnalysisOptionsE(
    const Module &module, const AnalysisOptions &options)
{
    Span span("analysis.replay");
    return __real__ZN6sulong12replayModuleERKNS_6ModuleERKNS_15AnalysisOptionsE(
        module, options);
}

// --- service protocol -----------------------------------------------------

std::string __real__ZN6sulong7service16encodeJobRequestB5cxx11ERKNS0_10JobRequestE(
    const service::JobRequest &request);

std::string
__wrap__ZN6sulong7service16encodeJobRequestB5cxx11ERKNS0_10JobRequestE(
    const service::JobRequest &request)
{
    Span span("protocol.encode");
    return __real__ZN6sulong7service16encodeJobRequestB5cxx11ERKNS0_10JobRequestE(
        request);
}

bool
__real__ZN6sulong7service16decodeJobRequestERKNS_3obs9JsonValueEPNS0_10JobRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::JsonValue &doc, service::JobRequest *out, std::string *error);

bool
__wrap__ZN6sulong7service16decodeJobRequestERKNS_3obs9JsonValueEPNS0_10JobRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::JsonValue &doc, service::JobRequest *out, std::string *error)
{
    Span span("protocol.decode");
    return __real__ZN6sulong7service16decodeJobRequestERKNS_3obs9JsonValueEPNS0_10JobRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
        doc, out, error);
}

} // extern "C"

namespace perfbench
{

void
probeLibcCompile()
{
    for (LibcVariant variant :
         {LibcVariant::safe, LibcVariant::nativeOptimized}) {
        std::vector<SourceFile> sources =
            __real__ZN6sulong11libcSourcesENS_11LibcVariantE(variant);
        // The first compile after a round of other work runs with cold
        // caches; time the second, like the back-to-back compiles it is
        // subtracted from.
        for (int i = 0; i < 2; i++) {
            Clock::time_point start = Clock::now();
            __real__ZN6sulong8compileCERKSt6vectorINS_10SourceFileESaIS1_EERKNS_14CompileOptionsE(
                sources, CompileOptions{});
            if (i == 1)
                recordCount(std::string("libc.compile_ms.") +
                                variantName(variant),
                            msBetween(start, Clock::now()));
        }
    }
}

} // namespace perfbench
