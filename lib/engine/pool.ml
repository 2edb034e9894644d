(* A fixed-size Domain worker pool with a plain FIFO job queue guarded by
   one mutex and one condition variable.  No work stealing: a job here is
   a whole request, so a single contended queue is nowhere near the
   bottleneck.  Jobs are fire-and-forget — the caller never waits on one,
   so there is no result to hand back and no way for a job to deadlock
   the queue by waiting on another.

   Observability: queue depth and busy-worker gauges, dequeued/inline job
   counters and a per-job latency histogram are registered in {!Obs} under
   the [metrics] prefix.  Each queued job runs inside a [<metrics>.job]
   span whose parent is the span that was current at [dispatch] time, so
   a worker's spans stay nested under whatever handed it the request. *)

open Psph_obs

type metrics = {
  span_name : string;
  jobs : Obs.counter;  (** dequeued by a worker *)
  inline : Obs.counter;  (** ran inline: zero domains or a stopped pool *)
  depth : Obs.gauge;  (** jobs currently queued *)
  busy : Obs.gauge;  (** workers currently running a job *)
  job_s : Obs.histogram;  (** per-dequeued-job wall time *)
}

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  metrics : metrics;
}

let size t = Array.length t.workers

let jobs_run t = Obs.counter_value t.metrics.jobs

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* stopping: drain done *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.m;
    Obs.incr t.metrics.jobs;
    Obs.gauge_add t.metrics.depth (-1.0);
    Obs.gauge_add t.metrics.busy 1.0;
    (* a raising job must not take its worker down with it *)
    (try Obs.time t.metrics.job_s job with _ -> ());
    Obs.gauge_add t.metrics.busy (-1.0);
    worker_loop t
  end

let create ?(metrics = "pool") ~domains () =
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [||];
      metrics =
        {
          span_name = metrics ^ ".job";
          jobs = Obs.counter (metrics ^ ".jobs");
          inline = Obs.counter (metrics ^ ".inline");
          depth = Obs.gauge (metrics ^ ".queue_depth");
          busy = Obs.gauge (metrics ^ ".busy");
          job_s = Obs.histogram (metrics ^ ".job_s");
        };
    }
  in
  t.workers <-
    Array.init (max 0 domains) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let dispatch t f =
  (* re-root the job's spans under whatever span is dispatching, so the
     trace nests the request's spans under its pool job, across domains *)
  let parent = Obs.current_span_id () in
  let job () =
    Obs.with_parent parent (fun () ->
        Obs.with_span t.metrics.span_name (fun _ -> f ()))
  in
  Mutex.lock t.m;
  let queued = Array.length t.workers > 0 && not t.stopping in
  if queued then begin
    Queue.push job t.queue;
    Obs.gauge_add t.metrics.depth 1.0;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.m;
  if not queued then begin
    Obs.incr t.metrics.inline;
    f ()
  end

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]
