open Doall_sim

type partition = { t : int; n : int; base : int; extra : int }

let make ~p ~t =
  if p <= 0 || t <= 0 then invalid_arg "Task.make: p and t must be positive";
  let n = min p t in
  { t; n; base = t / n; extra = t mod n }

let check_job part j =
  if j < 0 || j >= part.n then invalid_arg "Task: job id out of range"

(* The first [extra] jobs hold [base + 1] tasks and the rest [base], laid
   out contiguously in job order, so a job's bounds and a task's job are
   each one multiplication or division on either side of the boundary
   task [extra * (base + 1)]. *)
let[@inline] start part j =
  (j * part.base) + if j < part.extra then j else part.extra

let job_lo part j =
  check_job part j;
  start part j

let job_hi part j =
  check_job part j;
  start part (j + 1)

let job_size part j = job_hi part j - job_lo part j

let tasks_of_job part j =
  let lo = job_lo part j in
  List.init (job_hi part j - lo) (fun k -> lo + k)

let job_of_task part z =
  if z < 0 || z >= part.t then invalid_arg "Task.job_of_task: out of range";
  let base = part.base and extra = part.extra in
  let big = extra * (base + 1) in
  if z < big then z / (base + 1) else extra + ((z - big) / base)

let job_done part know j =
  check_job part j;
  let hi = start part (j + 1) in
  let rec go z = z >= hi || (Bitset.mem know z && go (z + 1)) in
  go (start part j)

let next_member part know j =
  check_job part j;
  let hi = start part (j + 1) in
  let rec go z =
    if z >= hi then None else if Bitset.mem know z then go (z + 1) else Some z
  in
  go (start part j)

let first_unknown part know j ~from =
  check_job part j;
  let hi = start part (j + 1) in
  let z = ref (max (start part j) from) in
  while !z < hi && Bitset.mem know !z do incr z done;
  !z

let jobs_done_count part know =
  let c = ref 0 in
  for j = 0 to part.n - 1 do
    if job_done part know j then incr c
  done;
  !c
