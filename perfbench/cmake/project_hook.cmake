# Injected into the repository's own CMake project by run.py through
# CMAKE_PROJECT_duplex_INCLUDE. It defers including perfbench.cmake until
# the top-level CMakeLists.txt has defined every duplex_* library target,
# so the benchmark links exactly what duplexd is built from, under the
# project's own flags, without editing any of the project's build files.
# (Deferred calls may not add subdirectories, hence include().)
set(PERFBENCH_BUILD_FILE "${CMAKE_CURRENT_LIST_DIR}/../perfbench.cmake")
cmake_language(DEFER CALL include "${PERFBENCH_BUILD_FILE}")
