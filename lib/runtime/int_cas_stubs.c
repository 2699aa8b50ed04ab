/* Compare-and-set on an int array slot (see int_cas.mli).  The runtime
   exports the CAS that backs Atomic.compare_and_set for any block field;
   the OCaml side has checked the index. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

value bds_int_cas(value a, value i, value expected, value desired)
{
  return Val_bool(caml_atomic_cas_field(a, Long_val(i), expected, desired));
}
