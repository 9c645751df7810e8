# Compile each listed module header on its own, so a header that leans
# on its includer's includes fails here instead of in a new caller:
#
#   cmake -DCXX=<compiler> -DSRC=<src dir> -DGEN=<generated dir> \
#         -P header_hygiene.cmake
set(headers
    io/driver.hpp io/service.hpp io/batch.hpp io/cli.hpp io/cache.hpp
    io/server.hpp io/serialize.hpp common/json_writer.hpp
    mapping/store.hpp mapping/mapper.hpp device/treespilation.hpp)
set(failed "")
foreach(h IN LISTS headers)
  execute_process(
    COMMAND "${CXX}" -std=c++20 -fsyntax-only -I "${SRC}" -I "${GEN}"
            "${SRC}/${h}"
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message("== ${h}\n${err}")
    list(APPEND failed ${h})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "headers that do not compile standalone: ${failed}")
endif()
