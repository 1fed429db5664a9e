/* CPU pinning for odebench (Linux sched_setaffinity). The benchmark
   pins the measuring process to one CPU and, in wire_ingest, the
   server process to another, so the kernel's placement of the two
   cannot change from run to run. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* The [k]-th CPU this process may run on, or -1 when there are not
   that many (or the mask cannot be read). */
value odebench_allowed_cpu(value k)
{
  cpu_set_t set;
  int want = Int_val(k), seen = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set) && seen++ == want) return Val_int(c);
  return Val_int(-1);
}

/* Pin this process to [cpu]; true on success. */
value odebench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
