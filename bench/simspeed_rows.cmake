# How the simspeed regression gate and the baseline recorder read a
# google-benchmark JSON document. Include it, then call
#   parse_benchmarks("${json}" <prefix>)
# to set <prefix>_<key> = the best (max) items_per_second over a row's
# repetitions, integer-truncated (throughputs are well above 1k items/s, so
# truncation noise is irrelevant), for every row name, and <prefix>_names =
# the row names in first-seen order. <key> is string(MAKE_C_IDENTIFIER) of the
# name. Aggregate rows (mean/median/stddev/cv) and rows without a rate
# counter are skipped.
function(parse_benchmarks json prefix)
  string(JSON n LENGTH "${json}" benchmarks)
  math(EXPR n_last "${n} - 1")
  set(names "")
  foreach(i RANGE ${n_last})
    # Every string(JSON) call parses its whole input; pulling the row out
    # once keeps the field lookups below off the full document.
    string(JSON row GET "${json}" benchmarks ${i})
    string(JSON agg ERROR_VARIABLE agg_err GET "${row}" aggregate_name)
    if(NOT agg_err)
      continue()  # mean/median/stddev rows of a repetition set
    endif()
    string(JSON ips ERROR_VARIABLE err GET "${row}" items_per_second)
    if(err)
      continue()  # benchmarks without a rate counter
    endif()
    string(JSON name GET "${row}" name)
    string(REGEX MATCH "^[0-9]+" ips_int "${ips}")
    string(MAKE_C_IDENTIFIER "${name}" key)
    # Track the max in function-local variables; PARENT_SCOPE writes are not
    # visible to later iterations of this loop.
    if(DEFINED local_${key})
      if(ips_int GREATER ${local_${key}})
        set(local_${key} "${ips_int}")
      endif()
    else()
      set(local_${key} "${ips_int}")
      list(APPEND names "${name}")
    endif()
  endforeach()
  foreach(name IN LISTS names)
    string(MAKE_C_IDENTIFIER "${name}" key)
    set(${prefix}_${key} "${local_${key}}" PARENT_SCOPE)
  endforeach()
  set(${prefix}_names "${names}" PARENT_SCOPE)
endfunction()
