# Benchmark harness: one binary per paper table/figure plus ablations.
# Declared at top level so build/bench/ holds only runnable binaries.

add_library(bench_support STATIC bench/BenchSupport.cpp)
target_include_directories(bench_support PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(bench_support PUBLIC
  swp_workloads swp_sim swp_interp swp_api)

function(swp_add_bench NAME)
  add_executable(${NAME} bench/${NAME}.cpp)
  target_link_libraries(${NAME} PRIVATE bench_support)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

swp_add_bench(bench_section2_example)
swp_add_bench(bench_table4_1)
swp_add_bench(bench_table4_2)
swp_add_bench(bench_figure4_1)
swp_add_bench(bench_figure4_2)
swp_add_bench(bench_code_size)
swp_add_bench(bench_unrolling_comparison)
swp_add_bench(bench_scalability)
swp_add_bench(bench_ablation_mve)
swp_add_bench(bench_ablation_search)
swp_add_bench(bench_ablation_hier)
swp_add_bench(bench_sched_micro)
target_link_libraries(bench_sched_micro PRIVATE benchmark::benchmark)
# --json resolves the checked-in seed baseline relative to the source
# tree and drops its default report in the build tree.
target_compile_definitions(bench_sched_micro PRIVATE
  SWP_SOURCE_DIR="${CMAKE_SOURCE_DIR}"
  SWP_BINARY_DIR="${CMAKE_BINARY_DIR}")

# The compile-service reuse gate: warm-hit latency, batched throughput,
# and memoized-vs-serial bit-identity (see bench_service.cpp).
swp_add_bench(bench_service)
target_link_libraries(bench_service PRIVATE swp_service swp_difftest)
target_compile_definitions(bench_service PRIVATE
  SWP_SOURCE_DIR="${CMAKE_SOURCE_DIR}"
  SWP_BINARY_DIR="${CMAKE_BINARY_DIR}")

# `cmake --build build --target sched_micro_json` regenerates the
# scheduler-throughput gate report against the checked-in seed baseline.
add_custom_target(sched_micro_json
  COMMAND bench_sched_micro --json ${CMAKE_BINARY_DIR}/BENCH_sched_micro.json
  DEPENDS bench_sched_micro
  COMMENT "Measuring Livermore modulo-scheduling throughput")
