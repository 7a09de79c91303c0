# Runs ptmc once and checks its exit code and, optionally, its stdout
# byte for byte against a golden transcript. The goldens pin every verdict,
# counterexample op, state rendering and note; host timing goes to stderr
# and is not compared.
#
# Invoked by ctest as:
#   cmake -DPTMC=<path> -DARGS="<ptmc arguments>" [-DEXPECT_RC=<n>]
#         [-DGOLDEN=<file> -DWORK_DIR=<dir>] -P ptmc_run.cmake
if(NOT DEFINED PTMC OR NOT DEFINED ARGS)
  message(FATAL_ERROR "usage: cmake -DPTMC=... -DARGS=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PTMC}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "ptmc ${ARGS} exited ${rc}, expected ${EXPECT_RC}:\n${err}")
endif()

if(DEFINED GOLDEN)
  get_filename_component(name "${GOLDEN}" NAME)
  file(MAKE_DIRECTORY "${WORK_DIR}")
  set(actual "${WORK_DIR}/${name}")
  file(WRITE "${actual}" "${out}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "ptmc ${ARGS} stdout differs from the golden:\n"
                        "  ${GOLDEN}\n  ${actual}")
  endif()
endif()
