/**
 * @file
 * Helpers of the traced build (perfbench_traced), defined in wrap.cc.
 */

#ifndef PERFBENCH_WRAP_H
#define PERFBENCH_WRAP_H

namespace perfbench
{

/**
 * Compile each libc variant alone, outside any span, and record the
 * time of a warm compile as a "libc.compile_ms.<variant>" count. Every traced
 * compileC() call records "frontend.compile_ms.<variant>"; the user
 * code's part of a compile is the difference of the two medians.
 */
void probeLibcCompile();

} // namespace perfbench

#endif // PERFBENCH_WRAP_H
