/* Monotonic host clock for the benchmark, read without allocating on the
   OCaml heap: the calibration probes run at host-time-dependent points,
   and a boxed float there would make the collector's schedule vary from
   run to run. */

#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

double perfbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}
