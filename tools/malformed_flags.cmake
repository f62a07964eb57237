# Runs fgpu-run once per malformed numeric flag value and expects exit 2
# with a message naming the flag: a usage error, never a crash and never a
# silently wrapped value. --list makes a wrongly accepted value exit at once;
# a suite-only flag accepted beside --list exits 2 too, but with the "has no
# effect" message, which therefore must not appear.
#   cmake -DFGPU_RUN=build/tools/fgpu-run -P tools/malformed_flags.cmake
set(cases
  --jobs=abc --jobs=-1 --jobs=+4 --jobs= --jobs=4294967296
  --seed=xyz --seed=18446744073709551616
  --repeat=-3 --repeat=0 --repeat=4x
  --hotspots=abc --mem-hotspots=-1 --remark-hotspots=2147483648
  --dse-exact=abc --dse-screen=1e3
  --config=C4294967297W8T8 --config=C4W99999999999T8)
set(failures "")
foreach(arg IN LISTS cases)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND "${FGPU_RUN}" --list "${arg}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}" named)
  string(FIND "${err}" "has no effect" accepted)
  if(NOT rc STREQUAL "2" OR named EQUAL -1 OR NOT accepted EQUAL -1)
    list(APPEND failures "  ${arg}: exit '${rc}', stderr '${err}'")
  endif()
endforeach()
if(failures)
  list(JOIN failures "\n" text)
  message(FATAL_ERROR "fgpu-run accepted or crashed on malformed values:\n${text}")
endif()
