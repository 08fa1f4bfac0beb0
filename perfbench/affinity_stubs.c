/* CPU affinity of the calling thread, for pinning single-domain runs. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, ascending; [] if unknown. */
value perfbench_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
  CAMLreturn(list);
}

/* Restrict the calling thread to [cpus]; false if the kernel refused. */
value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (; cpus != Val_emptylist; cpus = Field(cpus, 1)) {
    int cpu = Int_val(Field(cpus, 0));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
