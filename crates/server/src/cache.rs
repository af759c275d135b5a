//! The request cache: one keyed map from canonical request to response.
//! The first caller of a key becomes the *leader*: its entry is in flight
//! until the leader fills it, and concurrent callers of the key *follow*
//! the [`Flight`] instead of computing again. A filled `200` stays in the
//! map as the cached response; beyond `cap` filled entries the least
//! recently used one is evicted. Any other status (a 500 from a panicking
//! handler, a 429 from a full queue) leaves the map, so the next caller
//! leads afresh. In-flight entries are never evicted, and `cap == 0`
//! deduplicates concurrent callers without caching anything.

use crate::http::Response;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A once-cell a leader fills and any number of followers wait on.
pub struct Flight {
    slot: Mutex<Option<Response>>,
    done: Condvar,
}

impl Flight {
    /// An empty flight. Outside a [`RequestCache`] it serves uncacheable
    /// one-off work that still wants the wait/fill machinery.
    pub fn new() -> Arc<Flight> {
        Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Fills the flight and wakes every waiter. Idempotent in effect —
    /// the first value wins.
    pub fn fill(&self, resp: Response) {
        let mut slot = self.slot.lock().expect("no lock holder panics");
        if slot.is_none() {
            *slot = Some(resp);
        }
        drop(slot);
        self.done.notify_all();
    }

    /// Waits up to `timeout` for the response. `None` on timeout —
    /// callers loop and re-check their own deadline, which lets them
    /// interleave waiting with other duties (streaming progress frames).
    pub fn wait_for(&self, timeout: Duration) -> Option<Response> {
        let slot = self.slot.lock().expect("no lock holder panics");
        if let Some(resp) = slot.as_ref() {
            return Some(resp.clone());
        }
        let (slot, _) = self
            .done
            .wait_timeout(slot, timeout)
            .expect("no lock holder panics");
        slot.clone()
    }
}

/// The outcome of [`RequestCache::join`].
pub enum Join {
    /// The key's cached response.
    Hit(Response),
    /// This caller must compute the key and [`RequestCache::fill`] it.
    Lead(Arc<Flight>),
    /// Another caller is computing the key; wait on its flight.
    Follow(Arc<Flight>),
}

enum Entry {
    InFlight(Arc<Flight>),
    /// A cached `200`.
    Done(Response),
}

/// The keyed map of flights and cached responses.
pub struct RequestCache {
    cap: usize,
    /// Entries ordered least to most recently used: a hit or a fill moves
    /// its entry to the back. A linear scan is exact and cheap at the few
    /// hundred entries the server keeps.
    entries: Mutex<Vec<(String, Entry)>>,
}

impl RequestCache {
    /// A cache keeping at most `cap` filled entries.
    pub fn new(cap: usize) -> RequestCache {
        RequestCache {
            cap,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Joins `key`: a cached response is a hit (and becomes the most
    /// recently used), an in-flight key is followed, anything else is
    /// led.
    pub fn join(&self, key: &str) -> Join {
        let mut entries = self.entries.lock().expect("no lock holder panics");
        let Some(i) = entries.iter().position(|(k, _)| k == key) else {
            let flight = Flight::new();
            entries.push((key.to_string(), Entry::InFlight(flight.clone())));
            return Join::Lead(flight);
        };
        match &entries[i].1 {
            Entry::InFlight(flight) => Join::Follow(flight.clone()),
            Entry::Done(resp) => {
                let resp = resp.clone();
                let entry = entries.remove(i);
                entries.push(entry);
                Join::Hit(resp)
            }
        }
    }

    /// The leader's completion of `key`: a `200` becomes the cached
    /// entry, any other status leaves the map; then `flight` is filled,
    /// waking the followers. A caller racing with the fill either hits
    /// the cached entry, follows the filled flight, or leads afresh —
    /// never hangs.
    pub fn fill(&self, key: &str, flight: &Flight, resp: Response) {
        {
            let mut entries = self.entries.lock().expect("no lock holder panics");
            entries.retain(|(k, _)| k != key);
            if resp.status == 200 && self.cap > 0 {
                entries.push((key.to_string(), Entry::Done(resp.clone())));
                let done = |(_, e): &(String, Entry)| matches!(e, Entry::Done(_));
                if entries.iter().filter(|e| done(e)).count() > self.cap {
                    let lru = entries.iter().position(done).expect("a cached entry");
                    entries.remove(lru);
                }
            }
        }
        flight.fill(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_json::Json;

    fn ok(n: u64) -> Response {
        Response::json(200, &Json::object().with("n", n))
    }

    fn lead(c: &RequestCache, key: &str) -> Arc<Flight> {
        match c.join(key) {
            Join::Lead(f) => f,
            _ => panic!("{key} must lead"),
        }
    }

    fn follow(c: &RequestCache, key: &str) -> Arc<Flight> {
        match c.join(key) {
            Join::Follow(f) => f,
            _ => panic!("{key} must follow"),
        }
    }

    /// The cached body of `key`, or `None` when the join leads (the
    /// leader's entry is then left in flight).
    fn hit(c: &RequestCache, key: &str) -> Option<String> {
        match c.join(key) {
            Join::Hit(resp) => Some(resp.body_str()),
            Join::Lead(_) => None,
            Join::Follow(_) => panic!("{key} must not be in flight"),
        }
    }

    fn put(c: &RequestCache, key: &str, n: u64) {
        let f = lead(c, key);
        c.fill(key, &f, ok(n));
    }

    fn len(c: &RequestCache) -> usize {
        c.entries.lock().unwrap().len()
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = RequestCache::new(2);
        put(&c, "a", 1);
        put(&c, "b", 2);
        assert_eq!(
            hit(&c, "a"),
            Some(ok(1).body_str()),
            "refreshes a; b is LRU"
        );
        put(&c, "c", 3);
        assert_eq!(hit(&c, "a"), Some(ok(1).body_str()));
        assert_eq!(hit(&c, "c"), Some(ok(3).body_str()));
        assert_eq!(len(&c), 2);
        assert_eq!(hit(&c, "b"), None, "b was evicted");
    }

    #[test]
    fn a_fill_marks_its_key_most_recently_used() {
        let c = RequestCache::new(2);
        let a = lead(&c, "a");
        put(&c, "b", 2);
        c.fill("a", &a, ok(10));
        put(&c, "c", 3);
        assert_eq!(hit(&c, "a"), Some(ok(10).body_str()), "later fill survives");
        assert_eq!(hit(&c, "b"), None, "earlier fill evicted first");
    }

    #[test]
    fn second_joiner_follows_and_sees_leader_value() {
        let c = RequestCache::new(2);
        let leader = lead(&c, "k");
        let follower = follow(&c, "k");
        assert_eq!(len(&c), 1);
        let waiter = std::thread::spawn(move || follower.wait_for(Duration::from_secs(5)));
        c.fill("k", &leader, ok(7));
        assert_eq!(
            waiter.join().unwrap().map(|r| r.body_str()),
            Some(ok(7).body_str())
        );
        assert_eq!(hit(&c, "k"), Some(ok(7).body_str()), "a 200 stays cached");
    }

    #[test]
    fn a_non_200_fill_is_not_cached() {
        let c = RequestCache::new(2);
        let leader = lead(&c, "k");
        let follower = follow(&c, "k");
        c.fill("k", &leader, Response::error(500, "handler panicked"));
        let seen = follower.wait_for(Duration::from_secs(5)).unwrap();
        assert_eq!(seen.status, 500, "followers see the failure");
        assert_eq!(len(&c), 0, "a failure leaves the map");
        assert_eq!(hit(&c, "k"), None, "the next caller leads afresh");
    }

    #[test]
    fn an_entry_in_flight_is_never_evicted() {
        let c = RequestCache::new(1);
        let a = lead(&c, "a");
        put(&c, "b", 2);
        put(&c, "c", 3);
        assert_eq!(len(&c), 2, "one cached entry plus the flight");
        follow(&c, "a");
        assert_eq!(hit(&c, "c"), Some(ok(3).body_str()));
        c.fill("a", &a, ok(1));
        assert_eq!(hit(&c, "a"), Some(ok(1).body_str()));
        assert_eq!(hit(&c, "c"), None, "c was the LRU filled entry");
    }

    #[test]
    fn zero_capacity_deduplicates_but_caches_nothing() {
        let c = RequestCache::new(0);
        let leader = lead(&c, "k");
        let followers: Vec<_> = (0..3).map(|_| follow(&c, "k")).collect();
        let waiters: Vec<_> = followers
            .into_iter()
            .map(|f| std::thread::spawn(move || f.wait_for(Duration::from_secs(5))))
            .collect();
        c.fill("k", &leader, ok(1));
        for w in waiters {
            assert_eq!(w.join().unwrap().map(|r| r.status), Some(200));
        }
        assert_eq!(len(&c), 0);
        assert_eq!(hit(&c, "k"), None, "nothing stays cached");
    }

    #[test]
    fn wait_times_out_without_a_value() {
        let f = Flight::new();
        assert!(f.wait_for(Duration::from_millis(10)).is_none());
        f.fill(ok(1));
        f.fill(ok(2));
        let first = f.wait_for(Duration::from_millis(1)).unwrap();
        assert_eq!(first.body_str(), ok(1).body_str(), "first wins");
    }
}
