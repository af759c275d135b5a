//! The bounded admission queue and its worker pool: the bridge between
//! connection threads (which parse and wait) and compute workers (which
//! run handler closures). Backpressure is explicit — a full queue fails
//! `try_push` and the server answers 429 instead of buffering without
//! bound.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// A unit of queued work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    jobs: VecDeque<Job>,
    open: bool,
}

/// A fixed-capacity MPMC job queue. `try_push` never blocks; `pop`
/// blocks until a job arrives or the queue is closed and drained.
pub struct WorkQueue {
    state: Mutex<State>,
    ready: Condvar,
    cap: usize,
}

impl WorkQueue {
    /// A queue admitting at most `cap` waiting jobs (running jobs are not
    /// counted — they occupy workers, not queue slots).
    pub fn new(cap: usize) -> WorkQueue {
        WorkQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits `job`, or returns it when the queue is full or closed.
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut s = self.state.lock().unwrap();
        if !s.open || s.jobs.len() >= self.cap {
            return Err(job);
        }
        s.jobs.push_back(job);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job. `None` means the queue was closed and has
    /// fully drained — the worker is done with it.
    pub fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if !s.open {
                return None;
            }
            s = self.ready.wait(s).unwrap();
        }
    }

    /// Closes admission. Already-queued jobs still drain; `pop` returns
    /// `None` once they have. Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (not running).
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// One pool's claim on a worker thread: the queue to drain, and where
/// to report once it has drained.
struct Shift {
    queue: Arc<WorkQueue>,
    done: Sender<()>,
}

/// Worker threads of joined pools, parked until a later pool takes them.
///
/// Handlers do most of a server's allocating, on its workers, and the
/// allocator keeps what a thread frees in that thread's arena. A later
/// server on the same threads reuses that memory. On fresh threads it
/// may be handed other arenas and grow a working set of its own, so a
/// process that starts server after server would hold one per server.
static PARKED: Mutex<Vec<Sender<Shift>>> = Mutex::new(Vec::new());

/// Drains shift after shift for the life of the process (or until a job
/// panics outside the server's `catch_unwind`, which ends the thread).
fn work(mut shift: Shift) {
    loop {
        while let Some(job) = shift.queue.pop() {
            job();
        }
        // Parked before reporting done, so a pool started right after
        // `join` returns finds this thread.
        let (next, wait) = channel();
        PARKED.lock().unwrap_or_else(|e| e.into_inner()).push(next);
        let _ = shift.done.send(());
        let Ok(next) = wait.recv() else { return };
        shift = next;
    }
}

/// A fixed set of worker threads draining one [`WorkQueue`].
pub struct WorkerPool {
    done: Vec<Receiver<()>>,
}

impl WorkerPool {
    /// Puts `n` workers on `queue`: parked threads of joined pools first,
    /// then new ones.
    pub fn start(n: usize, queue: Arc<WorkQueue>) -> WorkerPool {
        let done = (0..n.max(1))
            .map(|i| {
                let (tx, rx) = channel();
                let shift = Shift {
                    queue: queue.clone(),
                    done: tx,
                };
                let parked = PARKED.lock().unwrap_or_else(|e| e.into_inner()).pop();
                match parked {
                    Some(worker) => worker
                        .send(shift)
                        .expect("a parked worker waits for its next shift"),
                    None => {
                        std::thread::Builder::new()
                            .name(format!("preexec-worker-{i}"))
                            .spawn(move || work(shift))
                            .expect("spawn worker");
                    }
                }
                rx
            })
            .collect();
        WorkerPool { done }
    }

    /// Waits for every worker to finish its last job (requires the queue
    /// to be closed). The threads stay parked for the next pool.
    pub fn join(self) {
        for rx in self.done {
            // An error means the worker ended instead; it is done too.
            let _ = rx.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn bounded_admission_rejects_when_full() {
        let q = WorkQueue::new(2);
        assert!(q.try_push(Box::new(|| {})).is_ok());
        assert!(q.try_push(Box::new(|| {})).is_ok());
        assert!(q.try_push(Box::new(|| {})).is_err(), "third must bounce");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn workers_drain_queue_on_close() {
        let q = Arc::new(WorkQueue::new(64));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = ran.clone();
            q.try_push(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .map_err(|_| ())
            .unwrap();
        }
        let pool = WorkerPool::start(3, q.clone());
        q.close();
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 10, "queued jobs drain on close");
        assert!(q.try_push(Box::new(|| {})).is_err(), "closed queue rejects");
    }

    #[test]
    fn later_pools_run_on_the_threads_of_joined_ones() {
        const POOLS: usize = 20;
        let ids = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..POOLS {
            let q = Arc::new(WorkQueue::new(64));
            let pool = WorkerPool::start(2, q.clone());
            for _ in 0..5 {
                let ids = ids.clone();
                q.try_push(Box::new(move || {
                    ids.lock().unwrap().insert(std::thread::current().id());
                }))
                .map_err(|_| ())
                .unwrap();
            }
            q.close();
            pool.join();
        }
        // Fresh threads per pool would show at least one id per pool;
        // other tests may take a parked thread now and then.
        let distinct = ids.lock().unwrap().len();
        assert!(distinct < POOLS, "{distinct} threads ran {POOLS} pools");
    }
}
