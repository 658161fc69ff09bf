open Doall_sim

type partition = {
  t : int;
  n : int;
  task_ranges : (int * int) array;
}

let make ~p ~t =
  if p <= 0 || t <= 0 then invalid_arg "Task.make: p and t must be positive";
  let n = min p t in
  let base = t / n and extra = t mod n in
  let task_ranges = Array.make n (0, 0) in
  let start = ref 0 in
  for j = 0 to n - 1 do
    let size = base + if j < extra then 1 else 0 in
    task_ranges.(j) <- (!start, !start + size);
    start := !start + size
  done;
  assert (!start = t);
  { t; n; task_ranges }

let check_job part j =
  if j < 0 || j >= part.n then invalid_arg "Task: job id out of range"

let job_size part j =
  check_job part j;
  let lo, hi = part.task_ranges.(j) in
  hi - lo

let tasks_of_job part j =
  check_job part j;
  let lo, hi = part.task_ranges.(j) in
  List.init (hi - lo) (fun k -> lo + k)

(* The first [extra] jobs hold [base + 1] tasks and the rest [base]
   ([make]), so a task's job is one division on either side of the
   boundary [extra * (base + 1)]. *)
let job_of_task part z =
  if z < 0 || z >= part.t then invalid_arg "Task.job_of_task: out of range";
  let base = part.t / part.n and extra = part.t mod part.n in
  let big = extra * (base + 1) in
  if z < big then z / (base + 1) else extra + ((z - big) / base)

let job_done part know j =
  check_job part j;
  let lo, hi = part.task_ranges.(j) in
  let rec go z = z >= hi || (Bitset.mem know z && go (z + 1)) in
  go lo

let next_member part know j =
  check_job part j;
  let lo, hi = part.task_ranges.(j) in
  let rec go z =
    if z >= hi then None else if Bitset.mem know z then go (z + 1) else Some z
  in
  go lo

let first_unknown part know j ~from =
  check_job part j;
  let lo, hi = part.task_ranges.(j) in
  let z = ref (max lo from) in
  while !z < hi && Bitset.mem know !z do incr z done;
  !z

let jobs_done_count part know =
  let c = ref 0 in
  for j = 0 to part.n - 1 do
    if job_done part know j then incr c
  done;
  !c
