# Adds the benchmark to the repository's own build without editing it.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_exareq_INCLUDE=<this file>
# which CMake includes right after the root's project() call. Deferring the
# include of perfbench.cmake to the end of the root CMakeLists means the
# benchmark sees exactly the library targets, flags and options the
# repository defines, whatever later changes make to them.
# Deferred arguments are expanded when the call runs, hence the variable.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PERFBENCH_DIR}/perfbench.cmake")
