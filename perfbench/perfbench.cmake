# perfbench_driver (load generator and answer checker) and its tests.
# Included into the duplex project by cmake/project_hook.cmake; run.py
# configures and builds the targets.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

add_library(perfbench_lib STATIC
  ${PERFBENCH_DIR}/src/corpus.cc
  ${PERFBENCH_DIR}/src/daemon.cc
  ${PERFBENCH_DIR}/src/loadgen.cc
  ${PERFBENCH_DIR}/src/stats.cc
  ${PERFBENCH_DIR}/src/trace.cc
  ${PERFBENCH_DIR}/src/workloads.cc
)
target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR}/src)
target_link_libraries(perfbench_lib PUBLIC
  duplex_net duplex_ir duplex_core duplex_text duplex_storage duplex_util
  Threads::Threads)

add_executable(perfbench_driver ${PERFBENCH_DIR}/src/main.cc)
target_link_libraries(perfbench_driver PRIVATE perfbench_lib)

add_executable(perfbench_selftest ${PERFBENCH_DIR}/tests/selftest.cc)
target_link_libraries(perfbench_selftest PRIVATE perfbench_lib
  GTest::gtest GTest::gtest_main)
