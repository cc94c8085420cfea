# The benchmark executable; included at the end of the root CMakeLists by
# inject.cmake (see run.py).
add_executable(exareq_perfbench
  ${PERFBENCH_DIR}/src/main.cpp
  ${PERFBENCH_DIR}/src/util.cpp
  ${PERFBENCH_DIR}/src/spans.cpp
  ${PERFBENCH_DIR}/src/data.cpp
  ${PERFBENCH_DIR}/src/probes.cpp
  ${PERFBENCH_DIR}/src/setup.cpp
  ${PERFBENCH_DIR}/src/campaign.cpp
  ${PERFBENCH_DIR}/src/refit.cpp
  ${PERFBENCH_DIR}/src/serve.cpp)
target_link_libraries(exareq_perfbench
  PRIVATE exareq_pipeline exareq_serve exareq_online exareq_obs
          exareq_warnings Threads::Threads)
target_compile_definitions(exareq_perfbench
  PRIVATE PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
