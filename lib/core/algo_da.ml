open Doall_sim
open Doall_perms

(* Memo of the searched low-contention list per q. [make] runs from
   Runner.run_grid worker domains, so the table is mutex-guarded; the
   search is a deterministic function of q (fixed seed), so whichever
   domain populates an entry first, every reader sees the same list. *)
let psi_cache : (int, Perm.t list) Hashtbl.t = Hashtbl.create 8
let psi_cache_mutex = Mutex.create ()

let default_psi ~q =
  Mutex.protect psi_cache_mutex (fun () ->
      match Hashtbl.find_opt psi_cache q with
      | Some psi -> psi
      | None ->
        let rng = Rng.create (0xDA5EED + q) in
        let cert = Search.certified ~rng q in
        Hashtbl.replace psi_cache q cert.Search.list;
        cert.Search.list)

(* Each replica component travels either as a full copy ([Know], the
   paper's reading) or, on the engine's delta-wire runs (Config.wire),
   as only the words touched since the sender's previous multicast. *)
type payload = Know of Bitset.t | Delta of Bitset.delta
type msg = { m_tree : payload; m_tasks : payload }

(* Union one epoch's worth of one replica component — the digest half
   of [merge_homomorphic] below, applied to tree and tasks alike. *)
let fold_payloads (ps : payload array) : payload =
  if Array.for_all (function Delta _ -> true | Know _ -> false) ps then
    Delta
      (Bitset.union_many
         (Array.map (function Delta dl -> dl | Know _ -> assert false) ps))
  else begin
    let cap =
      Array.fold_left
        (fun acc -> function
          | Know b -> max acc (Bitset.length b) | Delta _ -> acc)
        0 ps
    in
    let acc = Bitset.create cap in
    Array.iter
      (function
        | Know b -> Bitset.union_into ~dst:acc b
        | Delta dl -> Bitset.apply_delta ~dst:acc dl)
      ps;
    Know acc
  end

type frame = {
  node : int;
  depth : int;
  order : int array;
  mutable idx : int;
}

let make ?(q = 4) ?psi () : Algorithm.packed =
  let psi =
    match psi with
    | Some psi ->
      if List.length psi <> q then
        invalid_arg "Algo_da.make: psi must contain exactly q permutations";
      List.iter
        (fun pi ->
          if Perm.size pi <> q then
            invalid_arg "Algo_da.make: psi permutations must have size q")
        psi;
      psi
    | None ->
      if q < 2 || q > 8 then
        invalid_arg "Algo_da.make: default psi available for 2 <= q <= 8";
      default_psi ~q
  in
  let psi_arr = Array.of_list (List.map Perm.to_array psi) in
  (module struct
    let name = Printf.sprintf "da-q%d" q

    type nonrec msg = msg

    type state = {
      part : Task.partition;
      sh : Progress_tree.t;
      tree : Bitset.t;
      know : Bitset.t;
      trackers : (Bitset.tracker * Bitset.tracker) option;
        (* Some (tree, tasks) on delta-wire runs: words touched since
           the last multicast of each component. *)
      digits : int array;
      mutable stack : frame list;
      mutable current : int option; (* leaf node whose job is in progress *)
      mutable cur_lo : int;
        (* Scan cursor into [current]'s job: every member below it is
           known done. Knowledge is monotone, so it only advances and a
           job's scans cost O(job size) in total (as in Algo_pa). *)
      mutable halted : bool;
    }

    let init (cfg : Config.t) ~pid =
      let part = Task.make ~p:cfg.p ~t:cfg.t in
      let sh = Progress_tree.shape ~q ~jobs:part.Task.n in
      let tree = Progress_tree.initial_marks sh in
      let digits = Qary.digits ~q ~width:sh.Progress_tree.h pid in
      let stack, current =
        if Progress_tree.is_leaf sh Progress_tree.root then
          ([], Some Progress_tree.root)
        else
          ( [
              {
                node = Progress_tree.root;
                depth = 0;
                order = psi_arr.(digits.(0));
                idx = 0;
              };
            ],
            None )
      in
      let know = Bitset.create cfg.t in
      let trackers =
        match cfg.Config.wire with
        | Config.Delta -> Some (Bitset.tracker tree, Bitset.tracker know)
        | Config.Full -> None
      in
      {
        part;
        sh;
        tree;
        know;
        trackers;
        digits;
        stack;
        current;
        cur_lo = 0;
        halted = false;
      }

    let copy st =
      {
        st with
        tree = Bitset.copy st.tree;
        know = Bitset.copy st.know;
        trackers =
          Option.map
            (fun (tt, tk) ->
              (Bitset.tracker_copy tt, Bitset.tracker_copy tk))
            st.trackers;
        stack =
          List.map
            (fun fr ->
              { node = fr.node; depth = fr.depth; order = fr.order; idx = fr.idx })
            st.stack;
      }

    (* All tree/know mutations funnel through these two so the delta
       trackers never miss a touched word. *)
    let mark_tree st node =
      match st.trackers with
      | Some (tt, _) -> Bitset.set_tracked st.tree tt node
      | None -> Bitset.set st.tree node

    let mark_task st z =
      match st.trackers with
      | Some (_, tk) -> Bitset.set_tracked st.know tk z
      | None -> Bitset.set st.know z

    let receive st ~src:_ msg =
      match st.trackers with
      | Some (tt, tk) ->
        (match msg.m_tree with
         | Know b -> Bitset.union_into_tracked ~dst:st.tree tt b
         | Delta dl -> Bitset.apply_delta_tracked ~dst:st.tree tt dl);
        (match msg.m_tasks with
         | Know b -> Bitset.union_into_tracked ~dst:st.know tk b
         | Delta dl -> Bitset.apply_delta_tracked ~dst:st.know tk dl)
      | None ->
        (match msg.m_tree with
         | Know b -> Bitset.union_into ~dst:st.tree b
         | Delta dl -> Bitset.apply_delta ~dst:st.tree dl);
        (match msg.m_tasks with
         | Know b -> Bitset.union_into ~dst:st.know b
         | Delta dl -> Bitset.apply_delta ~dst:st.know dl)

    (* Both components of [receive] are src-independent monotone unions
       into disjoint sets, so folding an epoch componentwise delivers
       exactly what the per-record walk would (algorithm.mli). *)
    let merge_homomorphic =
      Some
        (fun msgs ->
          {
            m_tree = fold_payloads (Array.map (fun m -> m.m_tree) msgs);
            m_tasks = fold_payloads (Array.map (fun m -> m.m_tasks) msgs);
          })

    let is_done st = Bitset.is_full st.know
    let done_tasks st = st.know

    let snapshot st =
      match st.trackers with
      | Some (tt, tk) ->
        Some
          {
            m_tree = Delta (Bitset.delta_flush st.tree tt);
            m_tasks = Delta (Bitset.delta_flush st.know tk);
          }
      | None ->
        Some
          {
            m_tree = Know (Bitset.copy st.tree);
            m_tasks = Know (Bitset.copy st.know);
          }

    let perform_at_leaf st leaf ~from =
      (* One member task of the leaf's job, scanning from [from] (the
         cursor when resuming [current], the job's start otherwise);
         mark and multicast when the whole job is known done. *)
      let j = Progress_tree.job_of_leaf st.sh leaf in
      let hi = Task.job_hi st.part j in
      let z = Task.first_unknown st.part st.know j ~from in
      if z < hi then begin
        mark_task st z;
        st.cur_lo <- Task.first_unknown st.part st.know j ~from:(z + 1);
        if st.cur_lo >= hi then begin
          mark_tree st leaf;
          st.current <- None;
          Algorithm.result ~performed:z ?broadcast:(snapshot st) ()
        end
        else begin
          st.current <- Some leaf;
          Algorithm.result ~performed:z ()
        end
      end
      else begin
        (* The job completed elsewhere while we were heading to it. *)
        mark_tree st leaf;
        st.current <- None;
        Algorithm.result ?broadcast:(snapshot st) ()
      end

    let step st =
      if st.halted then Algorithm.nothing
      else if is_done st && st.current = None then begin
        st.halted <- true;
        Algorithm.result ~halt:true ()
      end
      else
        match st.current with
        | Some leaf -> perform_at_leaf st leaf ~from:st.cur_lo
        | None -> (
          match st.stack with
          | [] ->
            (* Traversal finished: the root is marked, so all jobs are
               done and [is_done] fires above on the next step. *)
            Algorithm.nothing
          | fr :: rest ->
            if Bitset.mem st.tree fr.node then begin
              (* Subtree known done (learned from a message): prune. *)
              st.stack <- rest;
              Algorithm.nothing
            end
            else if fr.idx >= st.sh.Progress_tree.q then begin
              (* Post-order completion: mark the node and share the news
                 (lines 50-52 of Fig. 3). *)
              mark_tree st fr.node;
              st.stack <- rest;
              Algorithm.result ?broadcast:(snapshot st) ()
            end
            else begin
              let branch = fr.order.(fr.idx) in
              fr.idx <- fr.idx + 1;
              let c = Progress_tree.child st.sh fr.node branch in
              if Bitset.mem st.tree c then Algorithm.nothing
              else if Progress_tree.is_leaf st.sh c then
                perform_at_leaf st c ~from:0
              else begin
                st.stack <-
                  {
                    node = c;
                    depth = fr.depth + 1;
                    order = psi_arr.(st.digits.(fr.depth + 1));
                    idx = 0;
                  }
                  :: st.stack;
                Algorithm.nothing
              end
            end)
  end)
